//! The fleet supervisor: process-level fault isolation for campaigns.
//!
//! The supervisor re-execs the CLI as N worker *processes* and hands
//! out campaign shards as heartbeat-renewed leases. The failure model
//! is total: a worker may be SIGKILLed, abort on a poisoned unit,
//! OOM, or hang forever. Recovery is uniform — the lease expires (or
//! the pipe EOFs), the worker is killed and respawned with capped
//! backoff, and the shard is requeued for another worker. A shard
//! that kills [`FleetConfig::poison_after`] workers is declared
//! poisoned and its units routed to quarantine by the caller instead
//! of sinking the whole campaign.
//!
//! Execution is at-least-once (a killed worker's shard is re-run from
//! the top), reduction is exactly-once (the [`OutcomeLedger`] folds
//! spool segments first-record-wins in plan order). Because per-unit
//! execution is deterministic, re-runs spool identical outcomes and
//! the merged campaign is byte-identical to an in-process `--threads`
//! run — including under random kill chaos.

use crate::proto::{read_frame, write_frame, ToSupervisor, ToWorker};
use crate::shard::{plan_shards, OutcomeLedger, ShardFate, ShardTable};
use crate::spool::{read_segment, read_segment_verified, VerifiedSegment};
use crate::worker::store_path;
use minpsid_journal::interrupt;
use minpsid_store::ArtifactStore;
use minpsid_trace::{emit, Event};
use std::collections::BTreeSet;
use std::io;
use std::path::{Path, PathBuf};
use std::process::{Child, ChildStdin};
use std::sync::mpsc;
use std::time::{Duration, Instant};

/// Knobs for one fleet run. All of these live outside the campaign
/// fingerprint: how work is distributed across processes must never
/// change what the campaign computes.
#[derive(Debug, Clone)]
pub struct FleetConfig {
    /// Worker process count.
    pub workers: usize,
    /// Target shards per worker; more shards = finer reassignment
    /// granularity, more per-shard overhead.
    pub shards_per_worker: usize,
    /// Lease timeout: a shard whose worker goes this long without a
    /// heartbeat is presumed wedged; the worker is killed and the
    /// shard reassigned. Heartbeats are per-unit, so this must exceed
    /// the slowest single injection by a wide margin.
    pub lease_ms: u64,
    /// Consecutive (non-chaos) worker kills that poison a shard.
    pub poison_after: u32,
    /// Worker respawn backoff: base and cap of the exponential.
    pub backoff_base_ms: u64,
    pub backoff_cap_ms: u64,
    /// Chaos: SIGKILL a busy worker every this-many milliseconds.
    /// Chaos kills never count toward poisoning — the fault is
    /// injected by the supervisor, not caused by the shard.
    pub chaos_kill_worker_ms: Option<u64>,
}

impl FleetConfig {
    pub fn new(workers: usize) -> FleetConfig {
        FleetConfig {
            workers: workers.max(1),
            shards_per_worker: 4,
            lease_ms: 10_000,
            poison_after: 3,
            backoff_base_ms: 50,
            backoff_cap_ms: 2_000,
            chaos_kill_worker_ms: None,
        }
    }
}

/// End-of-run fleet accounting.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FleetStats {
    pub spawns: u64,
    pub deaths: u64,
    pub chaos_kills: u64,
    pub lease_expiries: u64,
    pub reassigned: u64,
    pub poisoned_shards: u64,
    /// Sealed spool segments that failed digest verification at merge
    /// time; each was quarantined and its shard re-executed.
    pub corrupt_segments: u64,
}

/// What the fleet computed: the merged per-unit ledger and the plan
/// indices of poisoned shards. Units in neither were cut off by an
/// interrupt before their shard settled.
#[derive(Debug)]
pub struct FleetOutcome {
    pub ledger: OutcomeLedger,
    pub poisoned: BTreeSet<u64>,
    pub stats: FleetStats,
}

/// Give up on a worker slot that keeps dying before it ever reports
/// READY: that is a broken binary or environment, not shard poison,
/// and retrying forever would hang the campaign.
const MAX_PRE_READY_DEATHS: u32 = 5;

fn backoff_ms(base: u64, cap: u64, deaths: u64) -> u64 {
    let shift = deaths.min(16) as u32;
    base.checked_shl(shift)
        .unwrap_or(u64::MAX)
        .min(cap.max(base))
}

#[derive(Debug, PartialEq, Eq)]
enum SlotState {
    /// Spawned, waiting for READY.
    Starting,
    /// Ready, no lease.
    Idle,
    /// Holds a lease (which one, the table knows).
    Busy,
    /// Killed or died; respawn no earlier than the given instant.
    Dead { respawn_at: Instant },
}

struct Slot {
    child: Option<Child>,
    stdin: Option<ChildStdin>,
    state: SlotState,
    /// Bumped on every spawn; messages tagged with an older generation
    /// are from a replaced process and are dropped.
    gen: u64,
    /// Completed lifetimes (deaths) of this slot so far.
    restarts: u64,
    /// Deaths since the last READY; drives the respawn backoff so a
    /// crash-looping worker slows down but a healthy one killed by
    /// chaos (or a poisoned shard) respawns promptly.
    consec_deaths: u64,
    /// The next death of this slot was supervisor-inflicted chaos.
    chaos_kill: bool,
    /// Kill already sent; ignore the slot until its EOF arrives.
    doomed: bool,
    /// Deaths since the last READY (spawn-health guard).
    pre_ready_deaths: u32,
}

impl Slot {
    fn new() -> Slot {
        Slot {
            child: None,
            stdin: None,
            state: SlotState::Dead {
                respawn_at: Instant::now(),
            },
            gen: 0,
            restarts: 0,
            consec_deaths: 0,
            chaos_kill: false,
            doomed: false,
            pre_ready_deaths: 0,
        }
    }
}

enum ReaderMsg {
    Msg(ToSupervisor),
    /// EOF or a malformed frame: the worker is gone (or as good as).
    Gone,
}

/// Run a campaign across a fleet of supervised worker processes.
///
/// * `units` — plan indices to execute, ascending (the full plan, or
///   the unserved remainder on resume).
/// * `expected_population` — the supervisor's own golden-run
///   injectable-exec count; each worker's READY must match or the run
///   aborts (determinism drift would corrupt the merge).
/// * `spool_dir` — directory for per-lease WAL spool segments.
/// * `spawn` — builds and spawns the worker process for a slot; must
///   pipe stdin and stdout (stderr is the worker's to inherit).
///
/// Returns when every shard is done or poisoned, when an interrupt is
/// requested (partial segments salvaged into the ledger), or with an
/// error if workers can't be kept alive at all.
pub fn run_fleet<F>(
    cfg: &FleetConfig,
    units: &[u64],
    expected_population: u64,
    spool_dir: &Path,
    mut spawn: F,
) -> io::Result<FleetOutcome>
where
    F: FnMut(usize) -> io::Result<Child>,
{
    let mut stats = FleetStats::default();
    let mut ledger = OutcomeLedger::new();
    let mut table = ShardTable::new(
        plan_shards(units, cfg.workers * cfg.shards_per_worker.max(1)),
        cfg.poison_after,
    );
    if table.shard_count() == 0 {
        emit(Event::FleetSummary {
            workers: cfg.workers as u64,
            spawns: 0,
            deaths: 0,
            reassigned: 0,
            poisoned_shards: 0,
        });
        return Ok(FleetOutcome {
            ledger,
            poisoned: BTreeSet::new(),
            stats,
        });
    }
    std::fs::create_dir_all(spool_dir)?;
    let spool: PathBuf = spool_dir.to_path_buf();
    // Workers open the same store by the shared path convention and
    // seal their segments into it; the merge below reads through it so
    // segment bytes are digest-verified between fsync and fold.
    let store = ArtifactStore::open(&store_path(spool_dir))?;

    let (tx, rx) = mpsc::channel::<(usize, u64, ReaderMsg)>();
    let start = Instant::now();
    let now_ms = |start: Instant| start.elapsed().as_millis() as u64;

    let mut slots: Vec<Slot> = (0..cfg.workers).map(|_| Slot::new()).collect();
    let mut interrupted = false;
    let mut last_chaos = Instant::now();
    let mut chaos_cursor = 0usize;

    // Spawn one slot; on failure leave it dead with backoff.
    let spawn_slot = |k: usize,
                      slot: &mut Slot,
                      spawn: &mut F,
                      tx: &mpsc::Sender<(usize, u64, ReaderMsg)>,
                      stats: &mut FleetStats|
     -> io::Result<()> {
        let mut child = spawn(k)?;
        let stdin = child
            .stdin
            .take()
            .ok_or_else(|| io::Error::other("worker stdin must be piped"))?;
        let mut stdout = child
            .stdout
            .take()
            .ok_or_else(|| io::Error::other("worker stdout must be piped"))?;
        slot.gen += 1;
        let (gen, tx2) = (slot.gen, tx.clone());
        std::thread::Builder::new()
            .name(format!("minpsid-fleet-r{k}"))
            .spawn(move || loop {
                let msg = match read_frame(&mut stdout) {
                    Ok(Some(frame)) => match ToSupervisor::decode(&frame) {
                        Ok(m) => ReaderMsg::Msg(m),
                        Err(_) => ReaderMsg::Gone,
                    },
                    Ok(None) | Err(_) => ReaderMsg::Gone,
                };
                let gone = matches!(msg, ReaderMsg::Gone);
                if tx2.send((k, gen, msg)).is_err() || gone {
                    break;
                }
            })?;
        slot.child = Some(child);
        slot.stdin = Some(stdin);
        slot.state = SlotState::Starting;
        slot.doomed = false;
        slot.chaos_kill = false;
        stats.spawns += 1;
        emit(Event::FleetWorker {
            worker: k as u64,
            event: "spawned".to_string(),
            restarts: slot.restarts,
        });
        Ok(())
    };

    for (k, slot) in slots.iter_mut().enumerate() {
        if let Err(e) = spawn_slot(k, slot, &mut spawn, &tx, &mut stats) {
            // First-round spawn failure is fatal: nothing ever ran.
            return Err(io::Error::other(format!("spawning worker {k}: {e}")));
        }
    }

    // Assign the next pending shard to an idle slot.
    fn try_assign(k: usize, slot: &mut Slot, table: &mut ShardTable, start: Instant) {
        if slot.state != SlotState::Idle {
            return;
        }
        let now = start.elapsed().as_millis() as u64;
        let Some((shard, attempt)) = table.lease_next(k, now) else {
            return;
        };
        let msg = ToWorker::Assign {
            shard,
            attempt,
            units: table.units(shard).to_vec(),
        };
        let sent = slot
            .stdin
            .as_mut()
            .map(|w| write_frame(w, &msg.encode()).is_ok())
            .unwrap_or(false);
        if sent {
            slot.state = SlotState::Busy;
            emit(Event::FleetShard {
                shard: shard as u64,
                worker: k as u64,
                attempt: attempt as u64,
                event: "leased".to_string(),
            });
        } else {
            // Pipe already broken: hand the lease straight back (no
            // kill tally — the worker never saw the shard) and let the
            // EOF path recycle the process.
            let _ = table.fail(shard, false);
        }
    }

    loop {
        if interrupt::requested() {
            interrupted = true;
            break;
        }
        if table.all_settled() {
            break;
        }

        match rx.recv_timeout(Duration::from_millis(20)) {
            Ok((k, gen, _)) if gen != slots[k].gen => {} // replaced process
            Ok((k, _, ReaderMsg::Msg(msg))) => match msg {
                ToSupervisor::Ready { population } => {
                    if population != expected_population {
                        return Err(io::Error::other(format!(
                            "worker {k} population {population} != supervisor {expected_population}: \
                             golden runs diverged, refusing to merge"
                        )));
                    }
                    let slot = &mut slots[k];
                    if slot.state == SlotState::Starting {
                        slot.state = SlotState::Idle;
                        slot.pre_ready_deaths = 0;
                        slot.consec_deaths = 0;
                        emit(Event::FleetWorker {
                            worker: k as u64,
                            event: "ready".to_string(),
                            restarts: slot.restarts,
                        });
                        try_assign(k, slot, &mut table, start);
                    }
                }
                ToSupervisor::Heartbeat { shard, .. } => {
                    table.heartbeat(shard, k, now_ms(start));
                }
                ToSupervisor::ShardDone { shard } => {
                    let held = table.leased_by(k);
                    if held.map(|(s, _)| s) != Some(shard) {
                        continue; // stale completion from a lost lease
                    }
                    let attempt = held.unwrap().1;
                    let seg = match read_segment_verified(&store, &spool, shard, attempt) {
                        Ok(VerifiedSegment::Units(units)) => units,
                        Ok(VerifiedSegment::Corrupt) => {
                            // The sealed segment rotted between the
                            // worker's fsync and this merge. The store
                            // has quarantined the object; requeue the
                            // shard (no poison tally — the shard's
                            // units did nothing wrong) and re-execute.
                            stats.corrupt_segments += 1;
                            emit(Event::FleetShard {
                                shard: shard as u64,
                                worker: k as u64,
                                attempt: attempt as u64,
                                event: "corrupt".to_string(),
                            });
                            let _ = table.fail(shard, false);
                            let slot = &mut slots[k];
                            slot.state = SlotState::Idle;
                            try_assign(k, slot, &mut table, start);
                            continue;
                        }
                        Err(_) => Vec::new(),
                    };
                    let want = table.units(shard);
                    let have: std::collections::HashSet<u64> =
                        seg.iter().map(|r| r.index).collect();
                    let complete = want.iter().all(|u| have.contains(u));
                    if complete {
                        ledger.absorb(&seg);
                        table.complete(shard, k);
                        emit(Event::FleetShard {
                            shard: shard as u64,
                            worker: k as u64,
                            attempt: attempt as u64,
                            event: "done".to_string(),
                        });
                        let slot = &mut slots[k];
                        slot.state = SlotState::Idle;
                        try_assign(k, slot, &mut table, start);
                    } else {
                        // Claimed done but the fsynced segment is
                        // short: corrupted worker. Kill it; the EOF
                        // path requeues the shard (and this counts
                        // toward poison).
                        let slot = &mut slots[k];
                        slot.doomed = true;
                        if let Some(c) = slot.child.as_mut() {
                            let _ = c.kill();
                        }
                        emit(Event::FleetWorker {
                            worker: k as u64,
                            event: "killed".to_string(),
                            restarts: slot.restarts,
                        });
                    }
                }
            },
            Ok((k, _, ReaderMsg::Gone)) => {
                let was_killed_by_us = slots[k].doomed;
                let was_chaos = slots[k].chaos_kill;
                if let Some(mut c) = slots[k].child.take() {
                    let _ = c.kill();
                    let _ = c.wait();
                }
                slots[k].stdin = None;
                stats.deaths += 1;
                if !was_killed_by_us {
                    emit(Event::FleetWorker {
                        worker: k as u64,
                        event: "died".to_string(),
                        restarts: slots[k].restarts,
                    });
                }
                if slots[k].state == SlotState::Starting {
                    slots[k].pre_ready_deaths += 1;
                    if slots[k].pre_ready_deaths >= MAX_PRE_READY_DEATHS {
                        return Err(io::Error::other(format!(
                            "worker {k} died {MAX_PRE_READY_DEATHS} times before READY; \
                             giving up on the fleet"
                        )));
                    }
                }
                if let Some((shard, attempt)) = table.leased_by(k) {
                    match table.fail(shard, !was_chaos) {
                        ShardFate::Requeued { .. } => {
                            stats.reassigned += 1;
                            emit(Event::FleetShard {
                                shard: shard as u64,
                                worker: k as u64,
                                attempt: attempt as u64,
                                event: "reassigned".to_string(),
                            });
                        }
                        ShardFate::Poisoned => {
                            stats.poisoned_shards += 1;
                            emit(Event::FleetShard {
                                shard: shard as u64,
                                worker: k as u64,
                                attempt: attempt as u64,
                                event: "poisoned".to_string(),
                            });
                        }
                    }
                }
                slots[k].restarts += 1;
                slots[k].consec_deaths += 1;
                slots[k].chaos_kill = false;
                slots[k].doomed = false;
                let wait = backoff_ms(
                    cfg.backoff_base_ms,
                    cfg.backoff_cap_ms,
                    slots[k].consec_deaths.saturating_sub(1),
                );
                slots[k].state = SlotState::Dead {
                    respawn_at: Instant::now() + Duration::from_millis(wait),
                };
            }
            Err(mpsc::RecvTimeoutError::Timeout) => {}
            Err(mpsc::RecvTimeoutError::Disconnected) => unreachable!("supervisor holds a sender"),
        }

        // Lease expiry: wedged workers get killed; the EOF path does
        // the accounting (a hang is the shard's fault — it counts).
        let now = now_ms(start);
        for (shard, k) in table.expired(now, cfg.lease_ms) {
            if slots[k].doomed {
                continue;
            }
            slots[k].doomed = true;
            stats.lease_expiries += 1;
            if let Some(c) = slots[k].child.as_mut() {
                let _ = c.kill();
            }
            emit(Event::FleetWorker {
                worker: k as u64,
                event: "killed".to_string(),
                restarts: slots[k].restarts,
            });
            // Stop re-reporting this lease while the EOF is in flight.
            table.heartbeat(shard, k, now);
        }

        // Kill chaos: SIGKILL the next busy worker on the interval.
        if let Some(every) = cfg.chaos_kill_worker_ms {
            if last_chaos.elapsed().as_millis() as u64 >= every {
                for off in 0..slots.len() {
                    let k = (chaos_cursor + off) % slots.len();
                    if slots[k].state == SlotState::Busy && !slots[k].doomed {
                        slots[k].doomed = true;
                        slots[k].chaos_kill = true;
                        stats.chaos_kills += 1;
                        if let Some(c) = slots[k].child.as_mut() {
                            let _ = c.kill();
                        }
                        emit(Event::FleetWorker {
                            worker: k as u64,
                            event: "killed".to_string(),
                            restarts: slots[k].restarts,
                        });
                        chaos_cursor = k + 1;
                        last_chaos = Instant::now();
                        break;
                    }
                }
            }
        }

        // A death may have requeued a shard while other workers sat
        // idle with an empty queue: sweep idle slots every tick.
        for (k, slot) in slots.iter_mut().enumerate() {
            try_assign(k, slot, &mut table, start);
        }

        // Respawn dead slots whose backoff elapsed (while work remains).
        if !table.all_settled() {
            for (k, slot) in slots.iter_mut().enumerate() {
                let due = match slot.state {
                    SlotState::Dead { respawn_at } => respawn_at <= Instant::now(),
                    _ => false,
                };
                if due {
                    if let Err(e) = spawn_slot(k, slot, &mut spawn, &tx, &mut stats) {
                        slot.pre_ready_deaths += 1;
                        if slot.pre_ready_deaths >= MAX_PRE_READY_DEATHS {
                            return Err(io::Error::other(format!(
                                "worker {k} failed to spawn repeatedly: {e}"
                            )));
                        }
                        slot.restarts += 1;
                        slot.consec_deaths += 1;
                        let wait =
                            backoff_ms(cfg.backoff_base_ms, cfg.backoff_cap_ms, slot.consec_deaths);
                        slot.state = SlotState::Dead {
                            respawn_at: Instant::now() + Duration::from_millis(wait),
                        };
                    }
                }
            }
        }
    }

    // Graceful shutdown: ask, wait briefly, then kill.
    for slot in slots.iter_mut() {
        if let Some(mut w) = slot.stdin.take() {
            let _ = write_frame(&mut w, &ToWorker::Shutdown.encode());
        }
    }
    let deadline = Instant::now() + Duration::from_secs(2);
    for (k, slot) in slots.iter_mut().enumerate() {
        if let Some(mut c) = slot.child.take() {
            loop {
                match c.try_wait() {
                    Ok(Some(_)) => break,
                    Ok(None) if Instant::now() < deadline => {
                        std::thread::sleep(Duration::from_millis(10))
                    }
                    _ => {
                        let _ = c.kill();
                        let _ = c.wait();
                        break;
                    }
                }
            }
            emit(Event::FleetWorker {
                worker: k as u64,
                event: "stopped".to_string(),
                restarts: slot.restarts,
            });
        }
    }

    if interrupted {
        // Salvage every intact record of unsettled shards' attempts:
        // deterministic outcomes make partial segments safe to keep,
        // and a resume re-runs only what is still missing.
        for (shard, attempts) in table.salvageable() {
            for attempt in 0..attempts {
                if let Ok(seg) = read_segment(&spool, shard, attempt) {
                    ledger.absorb(&seg);
                }
            }
        }
    }

    emit(Event::FleetSummary {
        workers: cfg.workers as u64,
        spawns: stats.spawns,
        deaths: stats.deaths,
        reassigned: stats.reassigned,
        poisoned_shards: stats.poisoned_shards,
    });

    Ok(FleetOutcome {
        ledger,
        poisoned: table.poisoned_units().into_iter().collect(),
        stats,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backoff_is_exponential_and_capped() {
        assert_eq!(backoff_ms(50, 2_000, 0), 50);
        assert_eq!(backoff_ms(50, 2_000, 1), 100);
        assert_eq!(backoff_ms(50, 2_000, 3), 400);
        assert_eq!(backoff_ms(50, 2_000, 10), 2_000);
        assert_eq!(
            backoff_ms(50, 2_000, 63),
            2_000,
            "shift clamps, no overflow"
        );
        assert_eq!(backoff_ms(0, 0, 5), 0);
    }
}
