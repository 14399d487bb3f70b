//! Intra-station RSS execution lanes: the [`ChainExecutor`] that runs chains
//! off the pipeline's thread.
//!
//! When a batch is worth spreading (more than one lane would own a chain,
//! more than one packet to spread), the Agent keeps the pipeline — all
//! switch work, sealing, settling — on the calling thread (the *spine*) and
//! [`LaneExecutor`] dispatches NF-chain work to `N` lane threads. Every chain
//! is owned by exactly one lane for the duration of a batch, chosen by a
//! stable hash of its [`ChainId`], and each lane drains its queue in FIFO
//! order; together these two facts mean every chain sees its packets, bypass
//! credits and drop credits in exactly the order the inline executor would
//! have applied them, so NF state, statistics, verdicts and emitted events
//! never diverge from the unsharded run — only the thread that executes the
//! chain changes.
//!
//! A lane message is one packet. Slow-path packets that carry a megaflow
//! *seed* are the one synchronous case: the spine must install the sealed
//! wildcard entry before classifying the next packet (mid-batch sealing — an
//! entry sealed from packet N already serves packet N + 1), so those packets
//! carry a reply channel and the spine blocks until the owning lane reports
//! the verdict and the seal report. Seeds only occur on slow-path
//! classifications, so a warm steady-state batch never blocks. Every other
//! packet is *deferred*: its verdict comes back over a shared results
//! channel and the pipeline settles them in packet order once the batch is
//! classified.
//!
//! This is a streaming spine — work is routed while the batch is still being
//! classified — not a fork-join; the emulator's fan-outs use
//! `gnf_sim::fork_join` instead.

use crate::agent::{BypassCredit, ChainExecutor, ChainRun, ChainRunner, DeployedChain, Executed};
use gnf_nf::{Direction, Verdict};
use gnf_packet::Packet;
use gnf_types::{ChainId, PathMap};
use std::sync::mpsc;

/// One unit of chain work routed to a lane. Messages for the same chain are
/// always sent to the same lane, in spine (packet) order.
enum LaneMsg {
    /// Take a packet through its chain.
    Packet {
        /// The pipeline's slot for the packet (for result reassembly).
        slot: usize,
        /// The owning chain (guaranteed to live on this lane).
        chain: ChainId,
        /// Traversal direction.
        direction: Direction,
        /// The packet.
        packet: Packet,
        /// `Some` when the packet carries a megaflow seed: the lane must
        /// reply with the verdict *and* the seal report so the spine can
        /// install the wildcard entry before classifying the next packet.
        seal: Option<mpsc::Sender<ChainRun>>,
    },
    /// Replay the statistics of a wildcard bypass hit.
    Credit(ChainId, BypassCredit),
}

/// The stable lane assignment of a chain: an avalanche hash of the raw id
/// (MurmurHash3 `fmix64`) so consecutive chain ids spread over lanes.
fn lane_of_chain(chain: ChainId, lanes: usize) -> usize {
    if lanes <= 1 {
        return 0;
    }
    let mut hash = chain.raw();
    hash ^= hash >> 33;
    hash = hash.wrapping_mul(0xff51_afd7_ed55_8ccd);
    hash ^= hash >> 33;
    hash = hash.wrapping_mul(0xc4ce_b9fe_1a85_ec53);
    hash ^= hash >> 33;
    (hash % lanes as u64) as usize
}

/// The spine's handle on the lane threads of one batch: a read-only routing
/// map, one FIFO per lane and the shared channel deferred verdicts return on.
pub(crate) struct LaneExecutor {
    lane_of: PathMap<ChainId, usize>,
    senders: Vec<mpsc::Sender<LaneMsg>>,
    results: mpsc::Receiver<(usize, Verdict)>,
    dispatched: usize,
}

impl LaneExecutor {
    /// Partitions `chains` over `lanes` scoped threads by stable chain-id
    /// hash and hands `spine` the executor that fronts them. Returns
    /// `spine`'s result once every lane has drained its queue and exited.
    pub(crate) fn scoped<R>(
        chains: &mut PathMap<ChainId, DeployedChain>,
        lanes: usize,
        runner: ChainRunner,
        spine: impl FnOnce(LaneExecutor) -> R,
    ) -> R {
        let mut lane_chains: Vec<PathMap<ChainId, &mut DeployedChain>> =
            (0..lanes).map(|_| PathMap::default()).collect();
        let mut lane_of: PathMap<ChainId, usize> =
            PathMap::with_capacity_and_hasher(chains.len(), Default::default());
        for (&chain, deployed) in chains.iter_mut() {
            let lane = lane_of_chain(chain, lanes);
            lane_of.insert(chain, lane);
            lane_chains[lane].insert(chain, deployed);
        }
        std::thread::scope(|scope| {
            let (results_tx, results) = mpsc::channel();
            let senders = lane_chains
                .into_iter()
                .map(|chains| {
                    let (tx, queue) = mpsc::channel();
                    let results = results_tx.clone();
                    scope.spawn(move || lane_worker(chains, queue, results, runner));
                    tx
                })
                .collect();
            // Only the lanes hold result senders from here on, so a dead
            // lane surfaces as a hang-up instead of a deadlock.
            drop(results_tx);
            spine(LaneExecutor {
                lane_of,
                senders,
                results,
                dispatched: 0,
            })
        })
    }
}

impl ChainExecutor for LaneExecutor {
    fn execute(
        &mut self,
        slot: usize,
        chain: ChainId,
        direction: Direction,
        packet: Packet,
        seal: bool,
    ) -> Executed {
        let Some(&lane) = self.lane_of.get(&chain) else {
            return Executed::NoChain(packet);
        };
        let (seal, reply) = seal.then(mpsc::channel).unzip();
        self.senders[lane]
            .send(LaneMsg::Packet {
                slot,
                chain,
                direction,
                packet,
                seal,
            })
            .expect("lane outlives the spine");
        match reply {
            Some(reply) => Executed::Done(reply.recv().expect("lane replies to seed packets")),
            None => {
                self.dispatched += 1;
                Executed::Deferred
            }
        }
    }

    fn credit(&mut self, chain: ChainId, credit: BypassCredit) {
        if let Some(&lane) = self.lane_of.get(&chain) {
            let _ = self.senders[lane].send(LaneMsg::Credit(chain, credit));
        }
    }

    fn finish(self, mut fill: impl FnMut(usize, Verdict)) {
        // Close the queues: lanes drain their FIFOs and exit.
        drop(self.senders);
        for _ in 0..self.dispatched {
            let (slot, verdict) = self
                .results
                .recv()
                .expect("every dispatched packet yields a verdict");
            fill(slot, verdict);
        }
    }
}

/// Body of one lane thread: drains the queue in FIFO order, applying each
/// message to the owned chains, until the spine drops the sender.
///
/// Deferred verdicts go back through the shared `results` channel (the
/// pipeline reassembles them by slot); seed packets reply synchronously on
/// their dedicated channel. Credits mutate only NF statistics, but routing
/// them through the owning lane's queue keeps *every* chain mutation in
/// spine order, so even an NF whose credit accounting interacted with its
/// processing state could not observe a sharded/serial difference.
fn lane_worker(
    mut chains: PathMap<ChainId, &mut DeployedChain>,
    queue: mpsc::Receiver<LaneMsg>,
    results: mpsc::Sender<(usize, Verdict)>,
    runner: ChainRunner,
) {
    while let Ok(msg) = queue.recv() {
        match msg {
            LaneMsg::Packet {
                slot,
                chain,
                direction,
                packet,
                seal,
            } => {
                let deployed = chains
                    .get_mut(&chain)
                    .expect("packet routed to owning lane");
                let run = runner.run(deployed, packet, direction, seal.is_some());
                // The spine blocks on a seed reply and collects every
                // deferred verdict, so neither receiver can have hung up.
                let _ = match seal {
                    Some(reply) => reply.send(run).ok(),
                    None => results.send((slot, run.verdict)).ok(),
                };
            }
            LaneMsg::Credit(chain, credit) => {
                if let Some(deployed) = chains.get_mut(&chain) {
                    credit.apply(&mut deployed.chain);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lane_assignment_is_stable_and_spreads() {
        // Stability: the same chain maps to the same lane, every time.
        for raw in 0..64u64 {
            let id = ChainId::new(raw);
            assert_eq!(lane_of_chain(id, 4), lane_of_chain(id, 4));
        }
        // One lane (or fewer) always maps to lane 0.
        assert_eq!(lane_of_chain(ChainId::new(7), 1), 0);
        assert_eq!(lane_of_chain(ChainId::new(7), 0), 0);
        // Sequential ids (how deployments allocate them) spread over lanes.
        let mut hit = [false; 4];
        for raw in 0..32u64 {
            hit[lane_of_chain(ChainId::new(raw), 4)] = true;
        }
        assert!(hit.iter().all(|h| *h), "all four lanes receive chains");
    }
}
