//! Independent checkers: every answer the benchmark accepts is
//! recomputed here from the generated inputs alone, without calling
//! the code under test.
//!
//! - match counts by brute force ([`KeywordMirror`] for LSH keyword
//!   sets, [`DocMirror`] for word overlap, [`gram_count`] for ordered
//!   n-grams), reduced by [`reference_top_k`] to the contract every
//!   backend must meet: hits ordered by count descending then id
//!   ascending, zero counts excluded, `AT = MC_k + 1` (1 when fewer than
//!   `k` objects match);
//! - exact L2 kNN ([`knn_l2`]) and the Eqn. 13 approximation ratio
//!   ([`approx_ratio`]);
//! - edit distance by the textbook DP ([`edit_distance`]).

use std::collections::HashSet;

/// A hit as `(id, count)`.
pub type Hit = (u32, u32);

/// The exact top-`k` of `(id, count)` scores under the backend
/// contract, with its audit threshold.
pub fn reference_top_k(scores: impl IntoIterator<Item = Hit>, k: usize) -> (Vec<Hit>, u32) {
    let mut hits: Vec<Hit> = scores.into_iter().filter(|&(_, c)| c > 0).collect();
    let order = |a: &Hit, b: &Hit| b.1.cmp(&a.1).then(a.0.cmp(&b.0));
    if hits.len() > k && k > 0 {
        hits.select_nth_unstable_by(k - 1, order);
        hits.truncate(k);
    }
    hits.sort_unstable_by(order);
    hits.truncate(k);
    let at = if k > 0 && hits.len() == k {
        hits[k - 1].1 + 1
    } else {
        1
    };
    (hits, at)
}

/// Compare an answer with the reference, hit for hit. `Err` names the
/// first disagreement.
pub fn check_top_k(got: &[Hit], got_at: u32, expected: &(Vec<Hit>, u32)) -> Result<(), String> {
    if let Some(w) = got.windows(2).find(|w| (w[1].1, w[0].0) > (w[0].1, w[1].0)) {
        return Err(format!("hits out of order: {:?} before {:?}", w[0], w[1]));
    }
    let (want, want_at) = expected;
    if got.len() != want.len() {
        return Err(format!("{} hits, expected {}", got.len(), want.len()));
    }
    if let Some((i, (g, w))) = got.iter().zip(want).enumerate().find(|(_, (g, w))| g != w) {
        return Err(format!("hit {i} is {g:?}, expected {w:?}"));
    }
    if got_at != *want_at {
        return Err(format!("AT {got_at}, expected {want_at}"));
    }
    Ok(())
}

/// The live objects of a collection as keyword sets of one fixed width (LSH objects carry one keyword per hash function).
pub struct KeywordMirror {
    width: usize,
    keywords: Vec<u32>,
    live: Vec<bool>,
}

impl KeywordMirror {
    pub fn new(width: usize) -> Self {
        KeywordMirror {
            width,
            keywords: Vec::new(),
            live: Vec::new(),
        }
    }

    /// Append the object with the next id (its keywords distinct).
    pub fn push(&mut self, keywords: Vec<u32>) {
        assert_eq!(keywords.len(), self.width, "fixed-width keyword sets");
        self.keywords.extend(keywords);
        self.live.push(true);
    }

    pub fn delete(&mut self, id: u32) {
        self.live[id as usize] = false;
    }

    pub fn len(&self) -> usize {
        self.live.len()
    }

    pub fn top_k(&self, query: &[u32], k: usize) -> (Vec<Hit>, u32) {
        // membership bitmap of the (distinct) query keywords
        let max = query.iter().copied().max().unwrap_or(0) as usize;
        let mut bits = vec![0u64; max / 64 + 1];
        for &q in query {
            bits[q as usize / 64] |= 1 << (q % 64);
        }
        let hit = |kw: u32| {
            let w = kw as usize / 64;
            w < bits.len() && bits[w] >> (kw % 64) & 1 == 1
        };
        let scores = self
            .keywords
            .chunks_exact(self.width)
            .zip(&self.live)
            .enumerate()
            .filter(|(_, (_, &live))| live)
            .map(|(id, (kws, _))| (id as u32, kws.iter().filter(|&&kw| hit(kw)).count() as u32));
        reference_top_k(scores, k)
    }
}

/// The live document corpus as word sets; a document's count for a
/// query is the number of distinct words they share.
#[derive(Default)]
pub struct DocMirror {
    docs: Vec<Option<HashSet<String>>>,
}

impl DocMirror {
    pub fn push(&mut self, words: &[String]) {
        self.docs.push(Some(words.iter().cloned().collect()));
    }

    pub fn delete(&mut self, id: u32) {
        self.docs[id as usize] = None;
    }

    pub fn is_live(&self, id: u32) -> bool {
        self.docs.get(id as usize).is_some_and(Option::is_some)
    }

    pub fn len(&self) -> usize {
        self.docs.len()
    }

    pub fn top_k(&self, query: &[String], k: usize) -> (Vec<Hit>, u32) {
        let q: HashSet<&str> = query.iter().map(String::as_str).collect();
        let scores = self.docs.iter().enumerate().filter_map(|(id, d)| {
            let d = d.as_ref()?;
            Some((
                id as u32,
                q.iter().filter(|w| d.contains(**w)).count() as u32,
            ))
        });
        reference_top_k(scores, k)
    }
}

/// Shared ordered `n`-grams of two strings: the multiset intersection
/// of their length-`n` windows.
pub fn gram_count(a: &[u8], b: &[u8], n: usize) -> u32 {
    if a.len() < n || b.len() < n {
        return 0;
    }
    let mut ga: Vec<&[u8]> = a.windows(n).collect();
    let mut gb: Vec<&[u8]> = b.windows(n).collect();
    ga.sort_unstable();
    gb.sort_unstable();
    let (mut i, mut j, mut c) = (0, 0, 0);
    while i < ga.len() && j < gb.len() {
        match ga[i].cmp(gb[j]) {
            std::cmp::Ordering::Less => i += 1,
            std::cmp::Ordering::Greater => j += 1,
            std::cmp::Ordering::Equal => {
                c += 1;
                i += 1;
                j += 1;
            }
        }
    }
    c
}

/// Levenshtein distance by the full dynamic programme.
pub fn edit_distance(a: &[u8], b: &[u8]) -> u32 {
    let mut row: Vec<u32> = (0..=b.len() as u32).collect();
    for (i, &ca) in a.iter().enumerate() {
        let mut diag = row[0];
        row[0] = i as u32 + 1;
        for (j, &cb) in b.iter().enumerate() {
            let next = (diag + u32::from(ca != cb))
                .min(row[j] + 1)
                .min(row[j + 1] + 1);
            diag = row[j + 1];
            row[j + 1] = next;
        }
    }
    row[b.len()]
}

/// The `k` smallest edit distances from `query` over the live strings,
/// ascending.
pub fn exact_edit_top_k<'a>(
    query: &[u8],
    strings: impl Iterator<Item = &'a [u8]>,
    k: usize,
) -> Vec<u32> {
    let mut d: Vec<u32> = strings.map(|s| edit_distance(query, s)).collect();
    d.sort_unstable();
    d.truncate(k);
    d
}

pub fn l2(a: &[f32], b: &[f32]) -> f64 {
    a.iter()
        .zip(b)
        .map(|(x, y)| {
            let d = f64::from(*x) - f64::from(*y);
            d * d
        })
        .sum::<f64>()
        .sqrt()
}

/// Exact `k` nearest distances (ascending) from `q` over `points`.
pub fn knn_l2<'a>(points: impl Iterator<Item = &'a [f32]>, q: &[f32], k: usize) -> Vec<f64> {
    let mut d: Vec<f64> = points.map(|p| l2(p, q)).collect();
    let k = k.min(d.len());
    if k == 0 {
        return Vec::new();
    }
    d.select_nth_unstable_by(k - 1, |a, b| a.total_cmp(b));
    d.truncate(k);
    d.sort_unstable_by(|a, b| a.total_cmp(b));
    d
}

/// Eqn. 13: the mean over ranks `i` of the distance of the `i`-th
/// nearest returned point over the `i`-th true nearest distance. A
/// missing answer counts at rank `i` as the worst returned distance;
/// a zero true distance counts 1 when matched exactly and is skipped
/// otherwise (the ratio is undefined there).
pub fn approx_ratio(returned: &[f64], truth: &[f64]) -> f64 {
    let mut r = returned.to_vec();
    r.sort_unstable_by(|a, b| a.total_cmp(b));
    let worst = r.last().copied().unwrap_or(f64::INFINITY);
    let (mut sum, mut n) = (0.0, 0usize);
    for (i, &t) in truth.iter().enumerate() {
        let got = r.get(i).copied().unwrap_or(worst);
        if t > 0.0 {
            sum += got / t;
            n += 1;
        } else if got == 0.0 {
            sum += 1.0;
            n += 1;
        }
    }
    if n == 0 {
        1.0
    } else {
        sum / n as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn words(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn reference_orders_by_count_then_id_and_sets_at() {
        let (hits, at) = reference_top_k([(5, 2), (1, 3), (2, 2), (9, 0), (7, 2)], 3);
        assert_eq!(hits, vec![(1, 3), (2, 2), (5, 2)]);
        assert_eq!(at, 3, "AT = MC_k + 1");
        let (hits, at) = reference_top_k([(4, 1)], 3);
        assert_eq!(hits, vec![(4, 1)]);
        assert_eq!(at, 1, "fewer than k matches keep AT at 1");
    }

    #[test]
    fn keyword_mirror_counts_collisions_and_rejects_corruption() {
        // three LSH objects of width 3 (function i owns keywords 10*i..)
        let mut m = KeywordMirror::new(3);
        m.push(vec![1, 12, 23]);
        m.push(vec![1, 13, 23]);
        m.push(vec![2, 13, 24]);
        let want = m.top_k(&[1, 13, 23], 2);
        assert_eq!(want, (vec![(1, 3), (0, 2)], 3));
        assert!(check_top_k(&[(1, 3), (0, 2)], 3, &want).is_ok());
        // one count off
        assert!(check_top_k(&[(1, 3), (0, 1)], 3, &want).is_err());
        // two hits swapped
        assert!(check_top_k(&[(0, 2), (1, 3)], 3, &want).is_err());
        // wrong audit threshold
        assert!(check_top_k(&[(1, 3), (0, 2)], 2, &want).is_err());
        // a deleted id returned
        m.delete(1);
        let want = m.top_k(&[1, 13, 23], 2);
        assert_eq!(want, (vec![(0, 2), (2, 1)], 2));
        assert!(check_top_k(&[(1, 3), (0, 2)], 3, &want).is_err());
    }

    #[test]
    fn doc_mirror_counts_distinct_shared_words() {
        let mut m = DocMirror::default();
        m.push(&words("gpu similarity search"));
        m.push(&words("inverted index index framework"));
        m.push(&words("generic inverted index"));
        let q = words("generic inverted index index");
        let want = m.top_k(&q, 2);
        assert_eq!(want, (vec![(2, 3), (1, 2)], 3));
        assert!(check_top_k(&[(2, 3), (1, 2)], 3, &want).is_ok());
        assert!(
            check_top_k(&[(2, 3), (1, 3)], 4, &want).is_err(),
            "count off by one"
        );
        assert!(check_top_k(&[(1, 2), (2, 3)], 3, &want).is_err(), "swapped");
        m.delete(2);
        assert!(!m.is_live(2));
        let want = m.top_k(&q, 2);
        assert_eq!(want, (vec![(1, 2)], 1));
        assert!(
            check_top_k(&[(2, 3), (1, 2)], 3, &want).is_err(),
            "deleted id"
        );
    }

    #[test]
    fn gram_count_is_a_multiset_intersection() {
        assert_eq!(gram_count(b"aabaab", b"aabaab", 3), 4);
        assert_eq!(
            gram_count(b"aaaa", b"aaa", 3),
            1,
            "aaa occurs twice vs once"
        );
        assert_eq!(gram_count(b"abcde", b"xbcdy", 3), 1);
        assert_eq!(gram_count(b"ab", b"ab", 3), 0);
    }

    #[test]
    fn edit_distance_matches_hand_cases_and_detects_corruption() {
        assert_eq!(edit_distance(b"kitten", b"sitting"), 3);
        assert_eq!(edit_distance(b"", b"abc"), 3);
        assert_eq!(edit_distance(b"flaw", b"lawn"), 2);
        assert_eq!(edit_distance(b"same", b"same"), 0);
        let strings: Vec<&[u8]> = vec![b"genie on gpu", b"genie on cpu", b"inverted index"];
        assert_eq!(
            exact_edit_top_k(b"genie on gpy", strings.into_iter(), 2),
            vec![1, 2]
        );
        // a reported distance one off is caught by the recomputation
        let reported = 2;
        assert_ne!(edit_distance(b"genie on gpy", b"genie on gpu"), reported);
    }

    #[test]
    fn knn_and_ratio() {
        let pts: Vec<Vec<f32>> = vec![vec![0.0, 0.0], vec![3.0, 4.0], vec![1.0, 0.0]];
        let truth = knn_l2(pts.iter().map(|p| &p[..]), &[0.0, 0.0], 2);
        assert_eq!(truth, vec![0.0, 1.0]);
        assert_eq!(
            approx_ratio(&[1.0, 0.0], &truth),
            1.0,
            "order of return is irrelevant"
        );
        // returning the 5-away point instead of the 1-away one
        assert_eq!(approx_ratio(&[0.0, 5.0], &truth), 3.0);
        assert!(approx_ratio(&[0.0, 5.0], &truth) > 1.0);
    }
}
