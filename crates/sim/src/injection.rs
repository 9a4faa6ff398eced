//! Fault-injection plans and outage attribution.
//!
//! A chaos campaign (see the `sdnav-chaos` crate) compiles down to an
//! [`InjectionPlan`]: a time-sorted list of [`PlannedEvent`]s over resolved
//! element indices, plus an optional finite [`CrewPool`] for hardware
//! repairs. [`crate::Simulation::run_injected`] merges the planned events
//! into the organic event heap and records every transition into an
//! [`AttributionLedger`], so each control-plane outage can be blamed on the
//! injection (or organic failure) that opened it and on every cause that
//! contributed while it lasted.
//!
//! An **empty** plan is guaranteed not to perturb the simulation: no extra
//! RNG draws, no extra heap events, no behavioral branches — the result is
//! byte-identical to [`crate::Simulation::run`] for the same seed.

/// What a planned injection does when its scheduled time arrives.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum InjectAction {
    /// Force the target down now. `repair_hours` fixes the repair/restart
    /// duration; `None` samples the target's organic repair distribution.
    /// A no-op if the target is already down.
    Fail {
        /// Fixed repair duration in hours, or `None` for an organic sample.
        repair_hours: Option<f64>,
    },
    /// Planned downtime: the target goes down now and any in-flight or
    /// queued repair is suppressed until the window closes. Overlapping
    /// windows on one element merge to the latest end.
    Maintenance {
        /// Window length in hours.
        duration_hours: f64,
    },
    /// Arm a latent fault on a controller process: the process keeps
    /// reporting up but is discovered broken (and starts a manual-time
    /// restart) at the first failover onto it — the first event after
    /// arming that takes down another member block of a control-plane
    /// requirement the process belongs to.
    Latent,
}

/// One pre-scheduled injection occurrence.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PlannedEvent {
    /// Simulated time in hours.
    pub time: f64,
    /// Index of the campaign injection this occurrence belongs to (the
    /// attribution id; several occurrences and several correlated targets
    /// may share one id).
    pub injection: usize,
    /// The element acted on: an index of the simulation's element table
    /// ([`crate::Simulation::structure`]), as
    /// [`sdnav_core::Structure::element`] resolves it.
    pub element: usize,
    /// The action taken.
    pub action: InjectAction,
}

/// Queueing discipline of a finite repair-crew pool.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CrewDiscipline {
    /// First failed, first repaired.
    Fifo,
    /// Racks before hosts before VMs; FIFO within a class.
    Priority,
}

/// A finite pool of hardware repair crews.
///
/// Every rack/host/VM repair occupies one crew for its full duration;
/// failures arriving while all crews are busy wait in a queue, stretching
/// the element's effective MTTR under contention. Process restarts are not
/// crewed. `None` in [`InjectionPlan::crews`] models unlimited crews — the
/// organic engine behavior.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CrewPool {
    /// Number of crews (validated ≥ 1 by the campaign audit, SA023).
    pub crews: usize,
    /// Order in which waiting repairs are served.
    pub discipline: CrewDiscipline,
}

/// A compiled, deterministic fault-injection schedule.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct InjectionPlan {
    /// Human-readable label per campaign injection id, for ledger output.
    pub labels: Vec<String>,
    /// Occurrences, sorted by time (ties keep vector order).
    pub events: Vec<PlannedEvent>,
    /// Finite repair-crew pool, or `None` for unlimited crews.
    pub crews: Option<CrewPool>,
}

impl InjectionPlan {
    /// The empty plan: no injections, unlimited crews.
    #[must_use]
    pub fn empty() -> Self {
        InjectionPlan::default()
    }

    /// Whether this plan perturbs the simulation at all.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.events.is_empty() && self.crews.is_none()
    }
}

/// Who is to blame for a transition or an outage.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Cause {
    /// An organic (sampled) failure.
    Organic,
    /// The campaign injection with this id.
    Injection(usize),
}

impl Cause {
    /// Dense index for per-cause accumulation: organic is 0, injection `i`
    /// is `i + 1`.
    #[must_use]
    pub fn slot(self) -> usize {
        match self {
            Cause::Organic => 0,
            Cause::Injection(i) => i + 1,
        }
    }
}

/// One control-plane outage with its root-cause chain.
#[derive(Debug, Clone, PartialEq)]
pub struct OutageRecord {
    /// When the control plane went down (hours).
    pub start: f64,
    /// When it came back (clipped to the horizon if still open).
    pub end: f64,
    /// Cause of the transition that opened the outage.
    pub root_cause: Cause,
    /// Every cause that took an element down while the outage was open
    /// (deduplicated, includes the root).
    pub contributors: Vec<Cause>,
}

impl OutageRecord {
    /// Outage length in hours.
    #[must_use]
    pub fn duration(&self) -> f64 {
        self.end - self.start
    }
}

/// One per-host data-plane outage window.
///
/// Windows are clipped to the measured `[warmup, horizon]` interval, so
/// summing their durations per cause reproduces
/// [`AttributionLedger::dp_down_host_hours`] (up to floating-point
/// accumulation order).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DpWindowRecord {
    /// Compute-host index the window belongs to.
    pub host: usize,
    /// When the host's data plane went down (hours, clipped to warmup).
    pub start: f64,
    /// When it came back (clipped to the horizon if still open).
    pub end: f64,
    /// Cause of the transition that took the host down; fixed while the
    /// host stays down.
    pub cause: Cause,
}

impl DpWindowRecord {
    /// Window length in hours.
    #[must_use]
    pub fn duration(&self) -> f64 {
        self.end - self.start
    }
}

/// The attribution timeline of one injected run.
///
/// Control-plane outages follow the same window semantics as
/// [`crate::SimResult::cp_outage_count`]: only outages *starting* inside
/// the measured window are recorded, and an outage still open at the
/// horizon is truncated there. The records therefore account for 100% of
/// the run's reported CP outage-hours.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct AttributionLedger {
    /// Control-plane outages in start order.
    pub cp_outages: Vec<OutageRecord>,
    /// Data-plane downtime in host-hours per cause slot
    /// ([`Cause::slot`]), accumulated over the measured window; a host's
    /// downtime is blamed on the cause of the transition that took it down.
    pub dp_down_host_hours: Vec<f64>,
    /// Per-host data-plane outage windows (start/end/cause) in close
    /// order, clipped to the measured window. The same downtime
    /// `dp_down_host_hours` aggregates, kept as individual records.
    pub dp_windows: Vec<DpWindowRecord>,
    /// Planned events actually applied (within the horizon).
    pub injected_events: u64,
    /// Latent faults revealed by a failover.
    pub revealed_latents: u64,
}

impl AttributionLedger {
    /// A ledger sized for `injections` campaign injections.
    #[must_use]
    pub fn new(injections: usize) -> Self {
        AttributionLedger {
            dp_down_host_hours: vec![0.0; injections + 1],
            ..AttributionLedger::default()
        }
    }

    /// Total CP outage-hours across the records.
    #[must_use]
    pub fn cp_outage_hours(&self) -> f64 {
        // fold from +0.0: an empty `.sum::<f64>()` is -0.0, which would
        // serialize as "-0" in ledger reports.
        self.cp_outages
            .iter()
            .fold(0.0, |acc, o| acc + o.duration())
    }

    /// CP outage-hours per root cause, as `(cause slot, hours)` with every
    /// slot present (organic first).
    #[must_use]
    pub fn cp_hours_by_cause(&self) -> Vec<f64> {
        let mut hours = vec![0.0; self.dp_down_host_hours.len().max(1)];
        for outage in &self.cp_outages {
            let slot = outage.root_cause.slot();
            if slot >= hours.len() {
                hours.resize(slot + 1, 0.0);
            }
            hours[slot] += outage.duration();
        }
        hours
    }

    /// DP window-hours per cause slot, aggregated from [`Self::dp_windows`].
    /// Equals [`Self::dp_down_host_hours`] up to floating-point
    /// accumulation order — the cross-check the `claims_chaos` bin runs.
    #[must_use]
    pub fn dp_window_hours_by_cause(&self) -> Vec<f64> {
        let mut hours = vec![0.0; self.dp_down_host_hours.len().max(1)];
        for window in &self.dp_windows {
            let slot = window.cause.slot();
            if slot >= hours.len() {
                hours.resize(slot + 1, 0.0);
            }
            hours[slot] += window.duration();
        }
        hours
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_plan_is_empty() {
        assert!(InjectionPlan::empty().is_empty());
        let with_crews = InjectionPlan {
            crews: Some(CrewPool {
                crews: 2,
                discipline: CrewDiscipline::Fifo,
            }),
            ..InjectionPlan::empty()
        };
        assert!(!with_crews.is_empty());
    }

    #[test]
    fn cause_slots_are_dense() {
        assert_eq!(Cause::Organic.slot(), 0);
        assert_eq!(Cause::Injection(0).slot(), 1);
        assert_eq!(Cause::Injection(4).slot(), 5);
    }

    #[test]
    fn ledger_accounts_hours_by_root_cause() {
        let mut ledger = AttributionLedger::new(2);
        ledger.cp_outages.push(OutageRecord {
            start: 10.0,
            end: 12.0,
            root_cause: Cause::Injection(1),
            contributors: vec![Cause::Injection(1)],
        });
        ledger.cp_outages.push(OutageRecord {
            start: 20.0,
            end: 21.0,
            root_cause: Cause::Organic,
            contributors: vec![Cause::Organic, Cause::Injection(0)],
        });
        assert!((ledger.cp_outage_hours() - 3.0).abs() < 1e-12);
        let by_cause = ledger.cp_hours_by_cause();
        assert_eq!(by_cause.len(), 3);
        assert!((by_cause[0] - 1.0).abs() < 1e-12);
        assert!((by_cause[2] - 2.0).abs() < 1e-12);
    }

    #[test]
    fn dp_windows_aggregate_per_cause() {
        let mut ledger = AttributionLedger::new(1);
        ledger.dp_windows.push(DpWindowRecord {
            host: 0,
            start: 5.0,
            end: 8.0,
            cause: Cause::Injection(0),
        });
        ledger.dp_windows.push(DpWindowRecord {
            host: 1,
            start: 6.0,
            end: 7.5,
            cause: Cause::Organic,
        });
        ledger.dp_windows.push(DpWindowRecord {
            host: 0,
            start: 20.0,
            end: 21.0,
            cause: Cause::Injection(0),
        });
        assert!((ledger.dp_windows[0].duration() - 3.0).abs() < 1e-12);
        let by_cause = ledger.dp_window_hours_by_cause();
        assert_eq!(by_cause.len(), 2);
        assert!((by_cause[0] - 1.5).abs() < 1e-12);
        assert!((by_cause[1] - 4.0).abs() < 1e-12);
    }
}
