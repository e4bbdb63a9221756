//! Sensitivity self-test: a backend that answers exactly like
//! [`CpuBackend`] and then sleeps a fixed time per query. A run on it
//! must fall outside the `search_qps` bound; it never produces recorded
//! numbers.

use std::any::Any;
use std::sync::Arc;
use std::time::Duration;

use genie_core::backend::{BackendCaps, BackendIndex, CpuBackend, SearchBackend};
use genie_core::exec::SearchOutput;
use genie_core::index::InvertedIndex;
use genie_core::model::Query;

pub struct DelayedBackend {
    inner: CpuBackend,
    per_query: Duration,
}

impl DelayedBackend {
    pub fn new(inner: CpuBackend, per_query: Duration) -> Self {
        DelayedBackend { inner, per_query }
    }
}

impl SearchBackend for DelayedBackend {
    fn capabilities(&self) -> BackendCaps {
        self.inner.capabilities()
    }

    fn upload(&self, index: Arc<InvertedIndex>) -> Result<BackendIndex, String> {
        self.inner.upload(index)
    }

    fn search_batch(&self, index: &BackendIndex, queries: &[Query], k: usize) -> SearchOutput {
        let out = self.inner.search_batch(index, queries, k);
        std::thread::sleep(self.per_query * queries.len() as u32);
        out
    }

    fn as_any(&self) -> &dyn Any {
        self
    }
}
