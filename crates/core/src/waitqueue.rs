//! Wait queues: tasks whose data is not yet in HBM.
//!
//! "We use two queues types: wait queues and run queues. ... The wait
//! queue contains tasks that need data to be prefetched and the run
//! queue contains tasks that are ready to be scheduled by the Converse
//! scheduler." (§IV-B). The run queues live in `converse`; this module
//! is the wait side, in both the paper's per-PE layout and the
//! single-shared-queue layout it argues against (kept as ablation A1).

use crate::config::WaitQueueTopology;
use crate::task::OocTask;
use parking_lot::Mutex;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, Ordering};

/// A set of FIFO wait queues and the shutdown flag their consumers
/// poll. Waking a consumer is the consumer's business: IO threads ring
/// their own doorbells (see `strategy::io_threads`).
pub struct WaitQueues {
    topology: WaitQueueTopology,
    queues: Vec<Mutex<VecDeque<OocTask>>>,
    shutdown: AtomicBool,
}

impl WaitQueues {
    /// Build queues for `pes` PEs.
    pub fn new(topology: WaitQueueTopology, pes: usize) -> Self {
        let nqueues = match topology {
            WaitQueueTopology::PerPe => pes,
            WaitQueueTopology::SharedSingle => 1,
        };
        Self {
            topology,
            queues: (0..nqueues).map(|_| Mutex::new(VecDeque::new())).collect(),
            shutdown: AtomicBool::new(false),
        }
    }

    /// Number of wait queues.
    pub fn queue_count(&self) -> usize {
        self.queues.len()
    }

    /// The queue index a task for `pe` belongs to.
    pub fn queue_for_pe(&self, pe: usize) -> usize {
        match self.topology {
            WaitQueueTopology::PerPe => pe,
            WaitQueueTopology::SharedSingle => 0,
        }
    }

    /// Enqueue a task at the back of its PE's wait queue.
    pub fn push(&self, task: OocTask) {
        let q = self.queue_for_pe(task.pe);
        self.queues[q].lock().push_back(task);
    }

    /// Put a task back at the front (its fetch found no space; it keeps
    /// its FIFO position).
    pub fn push_front(&self, task: OocTask) {
        let q = self.queue_for_pe(task.pe);
        self.queues[q].lock().push_front(task);
    }

    /// Pop the head of queue `q`.
    pub fn pop(&self, q: usize) -> Option<OocTask> {
        self.queues[q].lock().pop_front()
    }

    /// Per-queue lengths (load-imbalance diagnostics for ablation A1).
    pub fn lengths(&self) -> Vec<usize> {
        self.queues.iter().map(|q| q.lock().len()).collect()
    }

    /// Tell the queues' consumers to exit. Wakes nobody: whoever
    /// parks on these queues must be woken by the caller.
    pub fn shutdown(&self) {
        self.shutdown.store(true, Ordering::SeqCst);
    }

    /// True once shutdown was requested.
    pub fn is_shutdown(&self) -> bool {
        self.shutdown.load(Ordering::SeqCst)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use converse::{ArrayId, EntryId, Envelope};

    fn task(pe: usize, tag: usize) -> OocTask {
        OocTask {
            env: Envelope::new(ArrayId(0), tag, EntryId(0), Box::new(())),
            pe,
            enqueued_at: 0,
            bytes: 0,
        }
    }

    #[test]
    fn per_pe_topology_separates_queues() {
        let wq = WaitQueues::new(WaitQueueTopology::PerPe, 4);
        assert_eq!(wq.queue_count(), 4);
        wq.push(task(0, 1));
        wq.push(task(2, 2));
        assert_eq!(wq.lengths(), vec![1, 0, 1, 0]);
        assert_eq!(wq.pop(0).unwrap().env.index, 1);
        assert!(wq.pop(0).is_none());
        assert_eq!(wq.pop(2).unwrap().env.index, 2);
    }

    #[test]
    fn shared_topology_uses_one_queue() {
        let wq = WaitQueues::new(WaitQueueTopology::SharedSingle, 4);
        assert_eq!(wq.queue_count(), 1);
        for pe in 0..4 {
            wq.push(task(pe, pe));
        }
        assert_eq!(wq.lengths(), vec![4]);
        assert_eq!(wq.queue_for_pe(3), 0);
        // FIFO across all PEs.
        let order: Vec<usize> = (0..4).map(|_| wq.pop(0).unwrap().pe).collect();
        assert_eq!(order, vec![0, 1, 2, 3]);
    }

    #[test]
    fn push_front_preserves_head_position() {
        let wq = WaitQueues::new(WaitQueueTopology::PerPe, 1);
        wq.push(task(0, 1));
        wq.push(task(0, 2));
        let head = wq.pop(0).unwrap();
        wq.push_front(head);
        assert_eq!(wq.pop(0).unwrap().env.index, 1);
    }
}
