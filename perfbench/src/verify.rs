//! The correctness check: every `/knn` answer must equal, byte for byte,
//! what `CorpusSnapshot::execute` answers for the same request on an
//! independent in-process open of the same store (matches, `QueryCost`
//! and epoch).
//!
//! The served corpus takes two states. Epoch 0 is the store as opened.
//! The first merge appends the fleet dump's novel plans as one segment;
//! every later dump repeats the same fleet plans, so every later merge
//! admits only fingerprint duplicates and leaves the answers unchanged.
//! The reference therefore holds the opened store (`epoch == 0`) and the
//! same store after one in-process append of the staged dump (`epoch >= 1`).

use std::collections::HashMap;
use std::path::Path;
use std::sync::Arc;

use uplan_core::formats::json;
use uplan_corpus::service::{CorpusService, CorpusSnapshot, DEFAULT_PENDING_CAPACITY};
use uplan_corpus::{QueryResponse, SegmentStore};

use crate::daemon::Answer;
use crate::inputs::Traffic;

pub struct Reference<'a> {
    dir: &'a Path,
    traffic: &'a Traffic,
    threads: usize,
    states: [Option<Arc<CorpusSnapshot>>; 2],
    memo: HashMap<(usize, usize), QueryResponse>,
}

impl<'a> Reference<'a> {
    /// `dir` is a copy of the store taken before the daemon opened it.
    pub fn new(dir: &'a Path, traffic: &'a Traffic, threads: usize) -> Reference<'a> {
        Reference {
            dir,
            traffic,
            threads,
            states: [None, None],
            memo: HashMap::new(),
        }
    }

    fn state(&mut self, s: usize) -> Result<Arc<CorpusSnapshot>, String> {
        if let Some(snapshot) = &self.states[s] {
            return Ok(Arc::clone(snapshot));
        }
        if s == 1 {
            // State 0 reads the directory before state 1 appends to it.
            self.state(0)?;
        }
        let mut store =
            SegmentStore::open(self.dir).map_err(|e| format!("cannot open reference: {e}"))?;
        if s == 1 {
            store
                .append(&self.traffic.dump_plans, self.threads)
                .map_err(|e| format!("reference append failed: {e}"))?;
        }
        let snapshot = CorpusService::with_store(store, DEFAULT_PENDING_CAPACITY).snapshot();
        self.states[s] = Some(Arc::clone(&snapshot));
        Ok(snapshot)
    }

    /// Distinct plans of reference state `s`.
    pub fn len(&mut self, s: usize) -> Result<usize, String> {
        Ok(self.state(s)?.corpus().len())
    }

    /// Checks one answer; `Err` describes the mismatch.
    pub fn check(&mut self, answer: &Answer) -> Result<(), String> {
        if answer.status != 200 {
            return Err(format!("status {}: {}", answer.status, answer.body));
        }
        let epoch = json::parse(&answer.body)
            .ok()
            .and_then(|doc| doc.get("epoch").and_then(|e| e.as_int()))
            .ok_or_else(|| format!("answer has no epoch: {}", answer.body))?;
        let s = usize::from(epoch > 0);
        if !self.memo.contains_key(&(s, answer.index)) {
            let snapshot = self.state(s)?;
            let expected = snapshot
                .execute(&self.traffic.requests[answer.index].reference)
                .map_err(|e| format!("reference query failed: {e}"))?;
            self.memo.insert((s, answer.index), expected);
        }
        // The reference snapshot is epoch 0; stamp the served epoch.
        let expected = self.memo[&(s, answer.index)]
            .clone()
            .with_epoch(epoch as u64)
            .to_json();
        if answer.body != expected {
            return Err(format!(
                "request {}: served {} but the in-process snapshot answers {expected}",
                answer.index, answer.body
            ));
        }
        Ok(())
    }

    /// Checks every answer; returns the number that failed (the first few
    /// are printed to stderr).
    pub fn check_all(&mut self, answers: &[Answer]) -> Result<u64, String> {
        let mut failed = 0u64;
        for answer in answers {
            if let Err(e) = self.check(answer) {
                if failed < 3 {
                    eprintln!("mismatch: {e}");
                }
                failed += 1;
            }
        }
        Ok(failed)
    }
}
