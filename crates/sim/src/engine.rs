//! The discrete-event simulation engine.

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use sdnav_core::des::{Des, Event};
use sdnav_core::{
    Component, ControllerSpec, ElementRef, ProcessElement, RestartMode, Scenario, Structure,
    Topology, UpState,
};

use crate::injection::{
    AttributionLedger, Cause, DpWindowRecord, InjectAction, InjectionPlan, OutageRecord,
};
use crate::{ConnectionModel, Estimate, SimConfig};

/// Result of a single simulation run.
#[derive(Debug, Clone, PartialEq)]
pub struct SimResult {
    /// Time-averaged control-plane availability over the measured window.
    pub cp_availability: f64,
    /// Batch-means estimate of the CP availability.
    pub cp_estimate: Estimate,
    /// Time- and host-averaged data-plane availability.
    pub dp_availability: f64,
    /// Batch-means estimate of the DP availability.
    pub dp_estimate: Estimate,
    /// Number of distinct control-plane outages that *started* inside the
    /// measured window.
    pub cp_outage_count: u64,
    /// Mean duration of those CP outages, in hours (NaN if none).
    ///
    /// JSON contract: NaN is not representable in JSON, and `sdnav-json`
    /// serializes every non-finite number as `null`. An outage-free run
    /// therefore reports `"cp_outage_mean_hours": null` in `sdnav chaos
    /// run --format json` output — consumers must treat `null` as "no
    /// outages", not as zero.
    pub cp_outage_mean_hours: f64,
    /// Mean time between CP outages: measured hours / outage count
    /// (infinite if none occurred). This is the quantity behind the
    /// paper's fleet argument — "no rack downtime for many years followed
    /// by a highly-publicized extended outage".
    pub cp_mtbf_hours: f64,
    /// Number of events processed.
    pub events: u64,
    /// Hours of simulated time (the configured horizon).
    pub simulated_hours: f64,
    /// Outage-attribution ledger, populated by
    /// [`Simulation::run_injected`] (`None` for [`Simulation::run`]).
    pub ledger: Option<AttributionLedger>,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum EventKind {
    /// An element fails (index into the [`Structure`]).
    Fail(usize),
    /// An element's repair or restart completes.
    Repair(usize),
    /// A compute host's agent re-discovers control nodes.
    Rediscover(usize),
    /// A planned injection occurrence (index into `InjectionPlan::events`).
    Injected(usize),
    /// End of a maintenance window on an element.
    MaintEnd(usize),
}

/// Only an element's fail/repair clock is ever cancelled: rediscovery,
/// injections and maintenance ends always fire.
impl Event for EventKind {
    fn entity(&self) -> Option<usize> {
        match *self {
            EventKind::Fail(e) | EventKind::Repair(e) => Some(e),
            _ => None,
        }
    }
}

/// A runnable simulation of a controller spec on a topology.
#[derive(Debug)]
pub struct Simulation<'a> {
    config: SimConfig,
    structure: Structure<'a>,
}

/// Why a [`Simulation`] could not be prepared.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum SimBuildError {
    /// The [`SimConfig`] failed [`SimConfig::try_validate`].
    Config(crate::ConfigError),
    /// The topology does not fit the spec.
    Topology(sdnav_core::TopologyError),
}

impl std::fmt::Display for SimBuildError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SimBuildError::Config(e) => write!(f, "invalid simulation config: {e}"),
            SimBuildError::Topology(e) => write!(f, "invalid topology: {e}"),
        }
    }
}

impl std::error::Error for SimBuildError {}

impl From<SimBuildError> for sdnav_core::SdnavError {
    fn from(e: SimBuildError) -> Self {
        sdnav_core::SdnavError::model(e.to_string())
    }
}

impl From<crate::ConfigError> for SimBuildError {
    fn from(e: crate::ConfigError) -> Self {
        SimBuildError::Config(e)
    }
}

impl From<sdnav_core::TopologyError> for SimBuildError {
    fn from(e: sdnav_core::TopologyError) -> Self {
        SimBuildError::Topology(e)
    }
}

impl<'a> Simulation<'a> {
    /// Prepares a simulation, validating the config and the topology/spec
    /// fit.
    ///
    /// # Errors
    ///
    /// Returns a [`SimBuildError`] if the config is invalid or the topology
    /// does not cover every controller `(role, node)` pair of the spec.
    pub fn try_new(
        spec: &'a ControllerSpec,
        topology: &'a Topology,
        config: SimConfig,
    ) -> Result<Self, SimBuildError> {
        config.try_validate()?;
        let structure = Structure::new(spec, topology, config.scenario, config.compute_hosts)?;
        Ok(Simulation { config, structure })
    }

    /// Runs the simulation with the given RNG seed.
    #[must_use]
    pub fn run(&self, seed: u64) -> SimResult {
        let empty = InjectionPlan::empty();
        let mut state = RunState::new(self, seed, &empty, false);
        state.execute(self)
    }

    /// Runs the simulation with a fault-injection plan merged into the
    /// organic event stream, recording an [`AttributionLedger`] into
    /// [`SimResult::ledger`].
    ///
    /// With an **empty** plan the returned result is identical to
    /// [`Simulation::run`] for the same seed, except that `ledger` is
    /// `Some` (recording the organic outages).
    #[must_use]
    pub fn run_injected(&self, seed: u64, plan: &InjectionPlan) -> SimResult {
        let mut state = RunState::new(self, seed, plan, true);
        state.execute(self)
    }

    /// The validated configuration this simulation runs with.
    #[must_use]
    pub fn config(&self) -> &SimConfig {
        &self.config
    }

    /// The element table: element indices, names and the CP/DP structure
    /// function this simulation evaluates.
    #[must_use]
    pub fn structure(&self) -> &Structure<'a> {
        &self.structure
    }
}

/// A hardware repair waiting for a free crew.
#[derive(Debug, Clone, Copy)]
struct QueuedRepair {
    fail_time: f64,
    /// Arrival order, tie-break within a discipline class.
    order: u64,
    /// Priority class: racks (0) before hosts (1) before VMs (2).
    rank: u8,
    elem: usize,
    /// Service duration, sampled at failure time (keeps the RNG draw
    /// order independent of crew contention).
    duration: f64,
}

/// Mutable per-run state.
struct RunState<'p> {
    rng: SmallRng,
    /// Pending events. Only injections cancel an element's fail/repair
    /// clock, so organic runs never drop an event.
    des: Des<EventKind>,
    /// Up-state per [`Structure`] element, with the CP/DP tallies.
    up: UpState<'p>,
    /// Connected control-role node indices per compute host.
    connections: Vec<[usize; 2]>,
    rediscovery_pending: Vec<bool>,
    // --- Injection state (inert for an empty plan) ---
    plan: &'p InjectionPlan,
    /// Per-element maintenance-window end (0 = not under maintenance).
    maint_until: Vec<f64>,
    crew_busy: usize,
    crew_order: u64,
    crew_queue: Vec<QueuedRepair>,
    /// Whether the element's in-flight repair holds a crew.
    crew_held: Vec<bool>,
    /// Armed latent fault (injection id) per element.
    latent_armed: Vec<Option<usize>>,
    /// Whether the plan contains latent faults (reveal tracking enabled).
    track_latents: bool,
    /// Up-block count per CP requirement after the previous event.
    cp_req_up: Vec<usize>,
    /// Whether each CP requirement lost a block during the current event.
    cp_req_dropped: Vec<bool>,
    /// Causes that took an element down during the current event.
    downs_this_event: Vec<Cause>,
    /// Cause of the event currently being applied.
    event_cause: Cause,
    /// Cause blamed for each compute host's current DP-down period.
    dp_down_cause: Vec<Cause>,
    /// When each compute host's current DP-down period started (unclipped
    /// event time; clipping to the measured window happens on close).
    dp_down_since: Vec<Option<f64>>,
    injected_count: u64,
    revealed_count: u64,
    open_root: Cause,
    open_contrib: Vec<Cause>,
    ledger: Option<AttributionLedger>,
}

impl<'p> RunState<'p> {
    fn new(sim: &'p Simulation<'_>, seed: u64, plan: &'p InjectionPlan, record: bool) -> Self {
        let cfg = &sim.config;
        let elements = sim.structure.len();
        let nodes = sim.structure.nodes();
        let mut state = RunState {
            rng: SmallRng::seed_from_u64(seed),
            des: Des::new(elements, cfg.horizon_hours),
            up: sim.structure.up_state(),
            connections: (0..cfg.compute_hosts)
                .map(|i| [i % nodes, (i + 1) % nodes])
                .collect(),
            rediscovery_pending: vec![false; cfg.compute_hosts],
            plan,
            maint_until: vec![0.0; elements],
            crew_busy: 0,
            crew_order: 0,
            crew_queue: Vec::new(),
            crew_held: vec![false; elements],
            latent_armed: vec![None; elements],
            track_latents: plan
                .events
                .iter()
                .any(|e| matches!(e.action, InjectAction::Latent)),
            cp_req_up: vec![0; sim.structure.cp().len()],
            cp_req_dropped: vec![false; sim.structure.cp().len()],
            downs_this_event: Vec::new(),
            event_cause: Cause::Organic,
            dp_down_cause: vec![Cause::Organic; cfg.compute_hosts],
            dp_down_since: vec![None; cfg.compute_hosts],
            injected_count: 0,
            revealed_count: 0,
            open_root: Cause::Organic,
            open_contrib: Vec::new(),
            ledger: record.then(|| AttributionLedger::new(plan.labels.len())),
        };
        // Seed initial failure events, one per element in table order.
        for elem in 0..elements {
            let t = state.exp(sim.config.mtbf(sim.structure.component(elem)));
            state.des.schedule(t, EventKind::Fail(elem));
        }
        // Merge the planned injection stream (time-sorted by the compiler;
        // same-time ties resolve by push order).
        for (i, ev) in plan.events.iter().enumerate() {
            state.des.schedule(ev.time, EventKind::Injected(i));
        }
        state
    }

    fn exp(&mut self, mean: f64) -> f64 {
        let u: f64 = self.rng.random();
        -mean * (1.0 - u).ln()
    }

    /// Samples a repair/restart duration with the configured shape.
    fn repair(&mut self, shape: crate::RepairShape, mean: f64) -> f64 {
        match shape {
            crate::RepairShape::Exponential => self.exp(mean),
            crate::RepairShape::Deterministic => mean,
            crate::RepairShape::Uniform => {
                let u: f64 = self.rng.random();
                mean * (0.5 + u)
            }
        }
    }

    /// Records that the current event took an element down (for outage
    /// attribution).
    fn note_down(&mut self) {
        let cause = self.event_cause;
        self.downs_this_event.push(cause);
    }

    /// Schedules a hardware repair, subject to the finite crew pool if one
    /// is configured. The duration is always sampled by the caller first,
    /// so crew contention never changes the RNG draw order.
    fn schedule_hw_repair(&mut self, elem: usize, rank: u8, duration: f64, now: f64) {
        let Some(pool) = self.plan.crews else {
            self.des.schedule(now + duration, EventKind::Repair(elem));
            return;
        };
        if self.crew_busy < pool.crews {
            self.crew_busy += 1;
            self.crew_held[elem] = true;
            self.des.schedule(now + duration, EventKind::Repair(elem));
        } else {
            self.crew_order += 1;
            self.crew_queue.push(QueuedRepair {
                fail_time: now,
                order: self.crew_order,
                rank,
                elem,
                duration,
            });
        }
    }

    /// Releases the crew held by `elem` (if any) and starts the next
    /// queued repair.
    fn release_crew(&mut self, elem: usize, now: f64) {
        if !self.crew_held[elem] {
            return;
        }
        self.crew_held[elem] = false;
        self.crew_busy -= 1;
        self.dequeue_crew(now);
    }

    fn dequeue_crew(&mut self, now: f64) {
        let Some(pool) = self.plan.crews else { return };
        if self.crew_busy >= pool.crews || self.crew_queue.is_empty() {
            return;
        }
        let key = |q: &QueuedRepair| match pool.discipline {
            crate::injection::CrewDiscipline::Fifo => (0u8, q.fail_time, q.order),
            crate::injection::CrewDiscipline::Priority => (q.rank, q.fail_time, q.order),
        };
        let best = self
            .crew_queue
            .iter()
            .enumerate()
            .min_by(|(_, a), (_, b)| {
                let (ra, ta, oa) = key(a);
                let (rb, tb, ob) = key(b);
                ra.cmp(&rb).then(ta.total_cmp(&tb)).then(oa.cmp(&ob))
            })
            .map(|(i, _)| i)
            .expect("non-empty queue");
        let q = self.crew_queue.swap_remove(best);
        self.crew_busy += 1;
        self.crew_held[q.elem] = true;
        // Service starts now; the queueing delay stretches effective MTTR.
        self.des
            .schedule(now + q.duration, EventKind::Repair(q.elem));
    }

    /// Restart time for a process at the moment of its failure.
    fn restart_time(&mut self, sim: &Simulation<'_>, p: ProcessElement) -> f64 {
        let cfg = &sim.config;
        let mean = if p.is_supervisor {
            match cfg.scenario {
                // Restarted at the next maintenance window.
                Scenario::SupervisorNotRequired => cfg.supervisor_window,
                // Restarted (manually) right away.
                Scenario::SupervisorRequired => cfg.manual_restart,
            }
        } else if p.restart == RestartMode::Manual {
            cfg.manual_restart
        } else if cfg.restart_model == crate::RestartModel::Faithful
            && p.supervisor.is_some_and(|sup| !self.up.is_up(sup))
        {
            // Auto-restarted only while the supervisor is up under the
            // faithful §III semantics; the analytic-independence model
            // always auto-restarts.
            cfg.manual_restart
        } else {
            cfg.auto_restart
        };
        self.repair(cfg.repair_shape, mean)
    }

    /// Shared + local DP state for one compute host. Under
    /// [`ConnectionModel::Failover`] the host's agent reaches a grouped
    /// block only through the two nodes it is connected to.
    fn host_dp_up(&self, sim: &Simulation<'_>, host: usize) -> bool {
        match sim.config.connection {
            ConnectionModel::Analytic => self.up.host_dp_up(host),
            ConnectionModel::Failover { .. } => self.up.host_dp_up_with(host, |q| {
                self.connections[host]
                    .iter()
                    .any(|&n| self.up.block_up(q, n))
            }),
        }
    }

    /// Checks connection health and schedules rediscovery when an agent has
    /// a dead connection that could be replaced by a live node.
    fn maybe_schedule_rediscovery(&mut self, sim: &Simulation<'_>, now: f64) {
        let ConnectionModel::Failover { rediscovery_hours } = sim.config.connection else {
            return;
        };
        let Some(grouped) = sim.structure.dp().iter().find(|q| q.grouped) else {
            return;
        };
        let nodes = sim.structure.nodes();
        for host in 0..sim.config.compute_hosts {
            if self.rediscovery_pending[host] {
                continue;
            }
            let connected = self.connections[host];
            let dead_connection = connected.iter().any(|&n| !self.up.block_up(grouped, n));
            let replacement_exists =
                (0..nodes).any(|n| self.up.block_up(grouped, n) && !connected.contains(&n));
            if dead_connection && replacement_exists {
                self.rediscovery_pending[host] = true;
                self.des
                    .schedule(now + rediscovery_hours, EventKind::Rediscover(host));
            }
        }
    }

    fn rediscover(&mut self, sim: &Simulation<'_>, host: usize) {
        let Some(grouped) = sim.structure.dp().iter().find(|q| q.grouped) else {
            return;
        };
        let live = |n: usize| self.up.block_up(grouped, n);
        let nodes = sim.structure.nodes();
        if !(0..nodes).any(live) {
            return; // nothing to connect to; retry on the next state change
        }
        // Keep live current connections, fill the rest from live nodes in
        // index order.
        let mut new_conn = [0; 2];
        let mut len = 0;
        for n in self.connections[host].into_iter().chain(0..nodes) {
            if len < 2 && live(n) && !new_conn[..len].contains(&n) {
                new_conn[len] = n;
                len += 1;
            }
        }
        if len < 2 {
            new_conn[1] = new_conn[0]; // degenerate single-node cluster state
        }
        self.connections[host] = new_conn;
    }

    /// Takes `elem` down: marks it, notes the cause, then draws its repair
    /// (hardware, through the crew pool) or restart time — unless `fixed`
    /// sets the duration — and schedules the repair.
    fn fail(&mut self, sim: &Simulation<'_>, elem: usize, now: f64, fixed: Option<f64>) {
        self.up.set(elem, false);
        self.note_down();
        let cfg = &sim.config;
        let (rates, rank) = match sim.structure.component(elem) {
            Component::Rack => (cfg.rack, 0),
            Component::Host => (cfg.host, 1),
            Component::Vm => (cfg.vm, 2),
            Component::Process(p) => {
                let t = match fixed {
                    Some(t) => t,
                    None => self.restart_time(sim, p),
                };
                self.des.schedule(now + t, EventKind::Repair(elem));
                return;
            }
        };
        let t = match fixed {
            Some(t) => t,
            None => self.repair(cfg.repair_shape, rates.mttr),
        };
        self.schedule_hw_repair(elem, rank, t, now);
    }

    /// Brings `elem` back up: marks it, draws and schedules its next
    /// failure, then frees its repair crew (a no-op for processes).
    fn restore(&mut self, sim: &Simulation<'_>, elem: usize, now: f64) {
        self.up.set(elem, true);
        let t = self.exp(sim.config.mtbf(sim.structure.component(elem)));
        self.des.schedule(now + t, EventKind::Fail(elem));
        self.release_crew(elem, now);
    }

    fn apply(&mut self, sim: &Simulation<'_>, kind: EventKind, now: f64) {
        match kind {
            EventKind::Fail(elem) => self.fail(sim, elem, now, None),
            EventKind::Repair(elem) => self.restore(sim, elem, now),
            EventKind::Rediscover(host) => {
                self.rediscovery_pending[host] = false;
                self.rediscover(sim, host);
            }
            EventKind::Injected(i) => self.apply_injected(sim, i, now),
            EventKind::MaintEnd(elem) => {
                // Skip superseded window ends (overlaps merge to the
                // latest end) and duplicates after the window closed. The
                // element holds no crew here: the window's start released
                // or dequeued it.
                if self.maint_until[elem] > 0.0 && now + 1e-9 >= self.maint_until[elem] {
                    self.maint_until[elem] = 0.0;
                    self.restore(sim, elem, now);
                }
            }
        }
        self.maybe_schedule_rediscovery(sim, now);
    }

    /// Applies planned-injection occurrence `i` of the plan.
    fn apply_injected(&mut self, sim: &Simulation<'_>, i: usize, now: f64) {
        let ev = self.plan.events[i];
        let elem = ev.element;
        match ev.action {
            InjectAction::Fail { repair_hours } => {
                // A forced failure of an already-down element is a no-op.
                if !self.up.is_up(elem) {
                    return;
                }
                // Cancel the pending organic failure clock; the repair
                // scheduled next stands.
                self.des.cancel(elem);
                self.fail(sim, elem, now, repair_hours);
                self.injected_count += 1;
            }
            InjectAction::Maintenance { duration_hours } => {
                if self.up.is_up(elem) {
                    self.up.set(elem, false);
                    self.note_down();
                }
                // Cancel whatever was pending (organic fail or an
                // in-flight repair) — the window owns the element now.
                self.des.cancel(elem);
                if self.crew_held[elem] {
                    self.release_crew(elem, now);
                } else {
                    self.crew_queue.retain(|q| q.elem != elem);
                }
                let end = (now + duration_hours).max(self.maint_until[elem]);
                self.maint_until[elem] = end;
                self.des.schedule(end, EventKind::MaintEnd(elem));
                self.injected_count += 1;
            }
            InjectAction::Latent => {
                if let ElementRef::Proc { .. } = sim.structure.element_ref(elem) {
                    self.latent_armed[elem] = Some(ev.injection);
                    self.injected_count += 1;
                }
            }
        }
    }

    /// Reveals armed latent faults after a failover: whenever a CP
    /// requirement's up-block count decreased this event, every armed
    /// latent process in a still-up block of that requirement is
    /// discovered broken and starts a manual-time restart. Which
    /// requirements decreased is read once, before any reveal, so a
    /// decrease a reveal itself causes reveals nothing further.
    fn reveal_latents(&mut self, sim: &Simulation<'_>, now: f64) {
        let cp = sim.structure.cp();
        for (ri, q) in cp.iter().enumerate() {
            self.cp_req_dropped[ri] = self.up.blocks_up(q) < self.cp_req_up[ri];
        }
        for (ri, q) in cp.iter().enumerate() {
            if !self.cp_req_dropped[ri] {
                continue;
            }
            for (node, members) in q.members.iter().enumerate() {
                if !self.up.block_up(q, node) {
                    continue;
                }
                for &elem in members {
                    let Some(inj) = self.latent_armed[elem] else {
                        continue;
                    };
                    if !self.up.is_up(elem) {
                        continue;
                    }
                    self.latent_armed[elem] = None;
                    self.up.set(elem, false);
                    self.des.cancel(elem);
                    let t = self.repair(sim.config.repair_shape, sim.config.manual_restart);
                    self.des.schedule(now + t, EventKind::Repair(elem));
                    self.downs_this_event.push(Cause::Injection(inj));
                    self.revealed_count += 1;
                }
            }
        }
        for (ri, q) in cp.iter().enumerate() {
            self.cp_req_up[ri] = self.up.blocks_up(q);
        }
    }

    fn execute(&mut self, sim: &Simulation<'_>) -> SimResult {
        let cfg = &sim.config;
        let horizon = cfg.horizon_hours;
        let mut batches = Batches::new(cfg);
        let warmup = batches.warmup;

        let mut now = 0.0_f64;
        let mut cp_state = self.up.cp_up();
        let mut dp_state: Vec<bool> = (0..cfg.compute_hosts)
            .map(|h| self.host_dp_up(sim, h))
            .collect();
        // CP outage bookkeeping (outages starting inside the window).
        let mut cp_outage_count = 0u64;
        let mut cp_outage_hours = 0.0_f64;
        let mut cp_down_since: Option<f64> = None;

        if self.track_latents {
            for (ri, q) in sim.structure.cp().iter().enumerate() {
                self.cp_req_up[ri] = self.up.blocks_up(q);
            }
        }

        while let Some((time, kind)) = self.des.pop() {
            batches.add(now, time, cp_state, &dp_state);
            self.accumulate_dp_ledger(now, time, &dp_state, warmup, horizon);
            now = time;
            self.downs_this_event.clear();
            self.event_cause = match kind {
                EventKind::Injected(i) => Cause::Injection(self.plan.events[i].injection),
                _ => Cause::Organic,
            };
            self.apply(sim, kind, now);
            if self.track_latents {
                self.reveal_latents(sim, now);
            }
            let cp_now = self.up.cp_up();
            if cp_state && !cp_now && now >= warmup {
                cp_down_since = Some(now);
                if self.ledger.is_some() {
                    self.open_root = self
                        .downs_this_event
                        .last()
                        .copied()
                        .unwrap_or(self.event_cause);
                    self.open_contrib.clear();
                    for i in 0..self.downs_this_event.len() {
                        let c = self.downs_this_event[i];
                        if !self.open_contrib.contains(&c) {
                            self.open_contrib.push(c);
                        }
                    }
                    if self.open_contrib.is_empty() {
                        self.open_contrib.push(self.open_root);
                    }
                }
            } else if !cp_state && cp_now {
                if let Some(start) = cp_down_since.take() {
                    cp_outage_count += 1;
                    cp_outage_hours += now - start;
                    let root = self.open_root;
                    let contributors = std::mem::take(&mut self.open_contrib);
                    if let Some(ledger) = self.ledger.as_mut() {
                        ledger.cp_outages.push(OutageRecord {
                            start,
                            end: now,
                            root_cause: root,
                            contributors,
                        });
                    }
                }
            } else if !cp_state && cp_down_since.is_some() && self.ledger.is_some() {
                // The outage persists; anything that went down during this
                // event contributed to keeping it open.
                for i in 0..self.downs_this_event.len() {
                    let c = self.downs_this_event[i];
                    if !self.open_contrib.contains(&c) {
                        self.open_contrib.push(c);
                    }
                }
            }
            cp_state = cp_now;
            for (h, state) in dp_state.iter_mut().enumerate() {
                let up = self.host_dp_up(sim, h);
                if self.ledger.is_some() {
                    if *state && !up {
                        self.dp_down_cause[h] = self
                            .downs_this_event
                            .last()
                            .copied()
                            .unwrap_or(self.event_cause);
                        self.dp_down_since[h] = Some(now);
                    } else if !*state && up {
                        self.close_dp_window(h, now, warmup, horizon);
                    }
                }
                *state = up;
            }
        }
        // Tail to the horizon.
        batches.add(now, horizon, cp_state, &dp_state);
        self.accumulate_dp_ledger(now, horizon, &dp_state, warmup, horizon);
        // DP windows still open at the horizon close there, truncated —
        // mirroring the host-hours accumulation above.
        for (h, &up) in dp_state.iter().enumerate() {
            if !up {
                self.close_dp_window(h, horizon, warmup, horizon);
            }
        }

        // An outage still open at the horizon counts, truncated.
        if let Some(start) = cp_down_since.take() {
            cp_outage_count += 1;
            cp_outage_hours += horizon - start;
            let root = self.open_root;
            let contributors = std::mem::take(&mut self.open_contrib);
            if let Some(ledger) = self.ledger.as_mut() {
                ledger.cp_outages.push(OutageRecord {
                    start,
                    end: horizon,
                    root_cause: root,
                    contributors,
                });
            }
        }

        let measured = horizon - warmup;
        let cp_estimate = Estimate::from_samples(&batches.fractions(&batches.cp));
        let dp_estimate = Estimate::from_samples(&batches.fractions(&batches.dp));
        SimResult {
            cp_availability: cp_estimate.mean,
            cp_estimate,
            dp_availability: dp_estimate.mean,
            dp_estimate,
            cp_outage_count,
            cp_outage_mean_hours: if cp_outage_count > 0 {
                cp_outage_hours / cp_outage_count as f64
            } else {
                f64::NAN
            },
            cp_mtbf_hours: if cp_outage_count > 0 {
                measured / cp_outage_count as f64
            } else {
                f64::INFINITY
            },
            events: self.des.events(),
            simulated_hours: horizon,
            ledger: {
                let injected = self.injected_count;
                let revealed = self.revealed_count;
                self.ledger.take().map(|mut l| {
                    l.injected_events = injected;
                    l.revealed_latents = revealed;
                    l
                })
            },
        }
    }

    /// Accumulates each down compute host's downtime into the ledger's
    /// per-cause host-hours, clipped to the measured window.
    fn accumulate_dp_ledger(
        &mut self,
        from: f64,
        to: f64,
        dp_state: &[bool],
        warmup: f64,
        horizon: f64,
    ) {
        let Some(ledger) = self.ledger.as_mut() else {
            return;
        };
        let lo = from.max(warmup);
        let hi = to.min(horizon);
        if hi <= lo {
            return;
        }
        for (h, up) in dp_state.iter().enumerate() {
            if *up {
                continue;
            }
            let slot = self.dp_down_cause[h].slot();
            if slot >= ledger.dp_down_host_hours.len() {
                ledger.dp_down_host_hours.resize(slot + 1, 0.0);
            }
            ledger.dp_down_host_hours[slot] += hi - lo;
        }
    }

    /// Closes host `h`'s open DP-down window at `end` and records it,
    /// clipped to the measured window (fully-warmup windows are dropped,
    /// matching the host-hours accumulation).
    fn close_dp_window(&mut self, h: usize, end: f64, warmup: f64, horizon: f64) {
        let Some(start) = self.dp_down_since[h].take() else {
            return;
        };
        let Some(ledger) = self.ledger.as_mut() else {
            return;
        };
        let lo = start.max(warmup);
        let hi = end.min(horizon);
        if hi <= lo {
            return;
        }
        ledger.dp_windows.push(DpWindowRecord {
            host: h,
            start: lo,
            end: hi,
            cause: self.dp_down_cause[h],
        });
    }
}

/// CP and DP up-time per batch of the measured window `[warmup, horizon]`,
/// for the batch-means estimates.
struct Batches {
    warmup: f64,
    horizon: f64,
    len: f64,
    /// Compute hosts the DP up-time is averaged over.
    hosts: f64,
    cp: Vec<f64>,
    dp: Vec<f64>,
}

impl Batches {
    fn new(cfg: &SimConfig) -> Self {
        let warmup = cfg.horizon_hours * cfg.warmup_fraction;
        Batches {
            warmup,
            horizon: cfg.horizon_hours,
            len: (cfg.horizon_hours - warmup) / cfg.batches as f64,
            hosts: cfg.compute_hosts as f64,
            cp: vec![0.0; cfg.batches],
            dp: vec![0.0; cfg.batches],
        }
    }

    /// Where batch `b` ends.
    fn end(&self, b: usize) -> f64 {
        self.warmup + (b + 1) as f64 * self.len
    }

    /// Adds the up-time between `from` and `to`, clipped to the measured
    /// window and split across batch boundaries.
    fn add(&mut self, from: f64, to: f64, cp: bool, dp_state: &[bool]) {
        let lo = from.max(self.warmup);
        let hi = to.min(self.horizon);
        if hi <= lo {
            return;
        }
        let dp_up_count = dp_state.iter().filter(|&&u| u).count() as f64;
        let last = self.cp.len() - 1;
        let mut t = lo;
        while t < hi {
            let mut b = (((t - self.warmup) / self.len) as usize).min(last);
            // Rounding can floor a `t` that sits on a boundary into the
            // batch ending there; that batch has no time left.
            if b < last && self.end(b) <= t {
                b += 1;
            }
            // The last batch runs to the horizon even where its computed
            // end rounds short of it.
            let end = if b == last { hi } else { hi.min(self.end(b)) };
            let seg = end - t;
            if cp {
                self.cp[b] += seg;
            }
            self.dp[b] += seg * dp_up_count / self.hosts;
            t += seg;
        }
    }

    /// Each batch's up-time as a fraction of the batch length.
    fn fractions(&self, time: &[f64]) -> Vec<f64> {
        time.iter().map(|&t| t / self.len).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sdnav_core::SwModel;

    #[test]
    fn try_new_rejects_a_host_mttr_that_never_completes() {
        // Only `try_new` is called: a run on such a config never returns.
        let s = spec();
        let topo = Topology::small(&s);
        for mttr in [f64::NAN, -48.0, f64::INFINITY] {
            let mut cfg = SimConfig::paper_defaults(Scenario::SupervisorNotRequired);
            cfg.host.mttr = mttr;
            let err = Simulation::try_new(&s, &topo, cfg).unwrap_err();
            assert!(
                matches!(
                    err,
                    SimBuildError::Config(crate::ConfigError::BadMttr("host", _))
                ),
                "host MTTR {mttr}: {err:?}"
            );
        }
    }

    #[test]
    fn batch_boundaries_that_round_down_still_advance() {
        // At these horizons some batch end, recomputed from a time that
        // sits on it, floors back into the batch ending there, and the
        // split used to spin forever.
        let s = spec();
        let topo = Topology::small(&s);
        for warmup_fraction in [0.05, 0.1] {
            let mut cfg =
                SimConfig::paper_defaults(Scenario::SupervisorNotRequired).accelerated(200.0);
            cfg.horizon_hours = 8_371.0;
            cfg.warmup_fraction = warmup_fraction;
            cfg.batches = 20;
            cfg.compute_hosts = 2;
            // Segments ending exactly on every computed boundary, and the
            // whole window in one piece; one of two hosts is DP-up.
            let mut stepped = Batches::new(&cfg);
            let mut from = 0.0;
            for b in 0..cfg.batches {
                let to = stepped.end(b);
                stepped.add(from, to, true, &[true, false]);
                from = to;
            }
            stepped.add(from, cfg.horizon_hours, true, &[true, false]);
            let mut whole = Batches::new(&cfg);
            whole.add(0.0, cfg.horizon_hours, true, &[true, false]);
            for batches in [&stepped, &whole] {
                for cp in batches.fractions(&batches.cp) {
                    assert!((cp - 1.0).abs() < 1e-9, "cp fraction {cp}");
                }
                for dp in batches.fractions(&batches.dp) {
                    assert!((dp - 0.5).abs() < 1e-9, "dp fraction {dp}");
                }
            }
            let r = Simulation::try_new(&s, &topo, cfg)
                .expect("valid simulation")
                .run(1);
            assert!(r.events > 100);
            for fraction in [r.cp_availability, r.dp_availability] {
                assert!((0.0..=1.0).contains(&fraction), "{fraction}");
            }
        }
    }

    fn spec() -> ControllerSpec {
        ControllerSpec::opencontrail_3x()
    }

    /// An accelerated configuration: unavailabilities ~100× the paper's, so
    /// failures are frequent and estimates converge in seconds. Uses the
    /// analytic-independence restart model so the closed forms are the
    /// exact steady state being sampled.
    fn fast_config(scenario: Scenario) -> SimConfig {
        let mut c = SimConfig::paper_defaults(scenario).accelerated(100.0);
        c.horizon_hours = 300_000.0;
        c.compute_hosts = 3;
        c.restart_model = crate::RestartModel::AnalyticIndependence;
        // Rack outages are 48 h long and rare; run their clock 24× faster
        // (same availability) so their downtime estimate is not lumpy.
        c.rack = c.rack.scaled_time(24.0);
        c
    }

    #[test]
    fn deterministic_given_seed() {
        let s = spec();
        let topo = Topology::small(&s);
        let mut cfg = fast_config(Scenario::SupervisorNotRequired);
        cfg.horizon_hours = 20_000.0;
        let sim = Simulation::try_new(&s, &topo, cfg).expect("valid simulation");
        let a = sim.run(7);
        let b = sim.run(7);
        // Field-wise comparison (the struct holds NaN-able fields, so
        // `==` would be false for identical outage-free runs).
        assert_eq!(a.events, b.events);
        assert_eq!(a.cp_availability, b.cp_availability);
        assert_eq!(a.dp_availability, b.dp_availability);
        assert_eq!(a.cp_outage_count, b.cp_outage_count);
        let c = sim.run(8);
        assert_ne!(a.events, c.events);
    }

    #[test]
    fn outage_statistics_are_consistent() {
        let s = spec();
        let topo = Topology::small(&s);
        // Paper-scale process rates but terrible racks, so CP outages are
        // rack events: frequent enough to count, rack-MTTR long.
        let mut cfg = SimConfig::paper_defaults(Scenario::SupervisorNotRequired);
        cfg.rack = crate::ElementRates {
            mtbf: 2_000.0,
            mttr: 20.0,
        };
        cfg.compute_hosts = 2;
        cfg.horizon_hours = 200_000.0;
        let r = Simulation::try_new(&s, &topo, cfg)
            .expect("valid simulation")
            .run(5);
        assert!(r.cp_outage_count > 20, "{}", r.cp_outage_count);
        // Outage time ≈ unavailability × measured window.
        let measured = cfg.horizon_hours * (1.0 - cfg.warmup_fraction);
        let outage_fraction = r.cp_outage_mean_hours * r.cp_outage_count as f64 / measured;
        let u = 1.0 - r.cp_availability;
        assert!(
            (outage_fraction - u).abs() / u < 0.15,
            "fraction={outage_fraction:e} u={u:e}"
        );
        // MTBF × count ≈ measured window by construction.
        assert!((r.cp_mtbf_hours * r.cp_outage_count as f64 - measured).abs() < 1.0);
        // Outages are rack-repair-dominated: mean duration within a factor
        // of a few of the 20 h rack MTTR.
        assert!(
            r.cp_outage_mean_hours > 5.0 && r.cp_outage_mean_hours < 60.0,
            "{}",
            r.cp_outage_mean_hours
        );
    }

    #[test]
    fn no_outages_yields_infinite_mtbf() {
        let s = spec();
        let topo = Topology::large(&s);
        // Paper-scale rates over a tiny horizon: almost surely no CP outage.
        let mut cfg = SimConfig::paper_defaults(Scenario::SupervisorNotRequired);
        cfg.horizon_hours = 100.0;
        cfg.compute_hosts = 1;
        let r = Simulation::try_new(&s, &topo, cfg)
            .expect("valid simulation")
            .run(9);
        if r.cp_outage_count == 0 {
            assert!(r.cp_mtbf_hours.is_infinite());
            assert!(r.cp_outage_mean_hours.is_nan());
        }
    }

    #[test]
    fn availabilities_are_probabilities() {
        let s = spec();
        let topo = Topology::small(&s);
        let mut cfg = fast_config(Scenario::SupervisorRequired);
        cfg.horizon_hours = 20_000.0;
        let r = Simulation::try_new(&s, &topo, cfg)
            .expect("valid simulation")
            .run(1);
        assert!((0.0..=1.0).contains(&r.cp_availability));
        assert!((0.0..=1.0).contains(&r.dp_availability));
        assert!(r.events > 100);
    }

    #[test]
    fn simulation_matches_analytic_cp_small_scenario_1() {
        let s = spec();
        let topo = Topology::small(&s);
        let cfg = fast_config(Scenario::SupervisorNotRequired);
        let result = Simulation::try_new(&s, &topo, cfg)
            .expect("valid simulation")
            .run(11);
        let analytic = SwModel::try_new(
            &s,
            &topo,
            cfg.analytic_params(),
            Scenario::SupervisorNotRequired,
        )
        .expect("valid SW model")
        .cp_availability();
        assert!(
            result.cp_estimate.is_consistent_with(analytic, 4.0),
            "sim={} analytic={analytic:.6}",
            result.cp_estimate
        );
    }

    #[test]
    fn simulation_matches_analytic_cp_large_scenario_2() {
        let s = spec();
        let topo = Topology::large(&s);
        let cfg = fast_config(Scenario::SupervisorRequired);
        let result = Simulation::try_new(&s, &topo, cfg)
            .expect("valid simulation")
            .run(13);
        let analytic = SwModel::try_new(
            &s,
            &topo,
            cfg.analytic_params(),
            Scenario::SupervisorRequired,
        )
        .expect("valid SW model")
        .cp_availability();
        assert!(
            result.cp_estimate.is_consistent_with(analytic, 4.0),
            "sim={} analytic={analytic:.6}",
            result.cp_estimate
        );
    }

    #[test]
    fn simulation_matches_analytic_dp() {
        let s = spec();
        let topo = Topology::small(&s);
        let cfg = fast_config(Scenario::SupervisorRequired);
        let result = Simulation::try_new(&s, &topo, cfg)
            .expect("valid simulation")
            .run(17);
        let analytic = SwModel::try_new(
            &s,
            &topo,
            cfg.analytic_params(),
            Scenario::SupervisorRequired,
        )
        .expect("valid SW model")
        .host_dp_availability();
        assert!(
            result.dp_estimate.is_consistent_with(analytic, 4.0),
            "sim={} analytic={analytic:.6}",
            result.dp_estimate
        );
    }

    #[test]
    fn supervisor_required_is_worse_in_simulation_too() {
        let s = spec();
        let topo = Topology::small(&s);
        let with = Simulation::try_new(&s, &topo, fast_config(Scenario::SupervisorRequired))
            .expect("valid simulation")
            .run(3);
        let without = Simulation::try_new(&s, &topo, fast_config(Scenario::SupervisorNotRequired))
            .expect("valid simulation")
            .run(3);
        assert!(with.dp_availability < without.dp_availability);
    }

    #[test]
    fn failover_model_close_to_analytic_with_fast_rediscovery() {
        // With a short rediscovery delay the §III connection dynamics cost
        // only a little extra DP downtime versus the analytic 1-of-3 block.
        let s = spec();
        let topo = Topology::small(&s);
        let mut analytic_cfg = fast_config(Scenario::SupervisorNotRequired);
        analytic_cfg.connection = ConnectionModel::Analytic;
        let mut failover_cfg = analytic_cfg;
        failover_cfg.connection = ConnectionModel::Failover {
            rediscovery_hours: 1.0 / 60.0,
        };
        let base = Simulation::try_new(&s, &topo, analytic_cfg)
            .expect("valid simulation")
            .run(19);
        let failover = Simulation::try_new(&s, &topo, failover_cfg)
            .expect("valid simulation")
            .run(19);
        // Failover can only be worse, and not by much.
        assert!(
            failover.dp_availability <= base.dp_availability + 3.0 * base.dp_estimate.std_error
        );
        assert!(base.dp_availability - failover.dp_availability < 0.002);
    }

    #[test]
    fn faithful_restarts_cost_more_than_independence() {
        // §III: processes need manual restart while their supervisor is
        // down. At accelerated rates that coupling visibly lowers DP
        // availability versus the analytic-independence assumption — the
        // gap the `sim_validation` experiment reports.
        let s = spec();
        let topo = Topology::large(&s);
        let mut faithful = fast_config(Scenario::SupervisorRequired);
        faithful.restart_model = crate::RestartModel::Faithful;
        let mut independent = faithful;
        independent.restart_model = crate::RestartModel::AnalyticIndependence;
        let f = Simulation::try_new(&s, &topo, faithful)
            .expect("valid simulation")
            .run(77);
        let i = Simulation::try_new(&s, &topo, independent)
            .expect("valid simulation")
            .run(77);
        assert!(
            f.dp_availability < i.dp_availability,
            "faithful={} independent={}",
            f.dp_availability,
            i.dp_availability
        );
        // Scale check: per auto vRouter process the penalty is about
        // (1−A_S)·(R_S−R)/F, partially hidden by supervisor-outage overlap.
        let gap = i.dp_availability - f.dp_availability;
        assert!(gap > 2e-5 && gap < 1e-3, "gap={gap:e}");
    }

    #[test]
    fn availability_is_insensitive_to_repair_shape() {
        // Alternating-renewal insensitivity: long-run availability depends
        // on repair-time means only, so all three shapes agree within CI.
        let s = spec();
        let topo = Topology::small(&s);
        let mut results = Vec::new();
        for shape in [
            crate::RepairShape::Exponential,
            crate::RepairShape::Deterministic,
            crate::RepairShape::Uniform,
        ] {
            let mut cfg = fast_config(Scenario::SupervisorRequired);
            cfg.repair_shape = shape;
            results.push(
                Simulation::try_new(&s, &topo, cfg)
                    .expect("valid simulation")
                    .run(41),
            );
        }
        for pair in results.windows(2) {
            let diff = (pair[0].dp_availability - pair[1].dp_availability).abs();
            let tol = 4.0
                * (pair[0].dp_estimate.std_error.powi(2) + pair[1].dp_estimate.std_error.powi(2))
                    .sqrt();
            assert!(diff <= tol, "diff={diff:e} tol={tol:e}");
        }
    }

    #[test]
    fn empty_plan_matches_plain_run() {
        let s = spec();
        let topo = Topology::large(&s);
        let mut cfg = fast_config(Scenario::SupervisorRequired);
        cfg.horizon_hours = 20_000.0;
        let sim = Simulation::try_new(&s, &topo, cfg).expect("valid simulation");
        for seed in [0, 7, 42] {
            let plain = sim.run(seed);
            let mut injected = sim.run_injected(seed, &crate::InjectionPlan::empty());
            let ledger = injected
                .ledger
                .take()
                .expect("injected run records a ledger");
            assert!(plain.ledger.is_none());
            // Ledger aside, the result is identical (field-wise to dodge
            // NaN != NaN in empty outage stats).
            assert_eq!(plain.events, injected.events);
            assert_eq!(plain.cp_availability, injected.cp_availability);
            assert_eq!(plain.dp_availability, injected.dp_availability);
            assert_eq!(plain.cp_outage_count, injected.cp_outage_count);
            assert_eq!(plain.cp_estimate, injected.cp_estimate);
            assert_eq!(plain.dp_estimate, injected.dp_estimate);
            // And the organic ledger accounts for every outage-hour.
            assert_eq!(ledger.cp_outages.len() as u64, plain.cp_outage_count);
            if plain.cp_outage_count > 0 {
                let mean = ledger.cp_outage_hours() / plain.cp_outage_count as f64;
                assert!((mean - plain.cp_outage_mean_hours).abs() < 1e-9);
            }
            assert_eq!(ledger.injected_events, 0);
            assert!(ledger
                .cp_outages
                .iter()
                .all(|o| o.root_cause == crate::Cause::Organic));
        }
    }

    #[test]
    fn injected_rack_failure_shows_in_ledger() {
        let s = spec();
        let topo = Topology::small(&s);
        // Paper-scale rates: organically the single rack essentially never
        // fails inside a short horizon, so the injected outage dominates.
        let mut cfg = SimConfig::paper_defaults(Scenario::SupervisorNotRequired);
        cfg.horizon_hours = 5_000.0;
        cfg.compute_hosts = 2;
        let sim = Simulation::try_new(&s, &topo, cfg).expect("valid simulation");
        let plan = crate::InjectionPlan {
            labels: vec!["kill-rack0".into()],
            events: vec![crate::PlannedEvent {
                time: 3_000.0,
                injection: 0,
                element: 0,
                action: crate::InjectAction::Fail {
                    repair_hours: Some(48.0),
                },
            }],
            crews: None,
        };
        let r = sim.run_injected(11, &plan);
        let ledger = r.ledger.expect("ledger recorded");
        assert_eq!(ledger.injected_events, 1);
        // The rack kill takes the whole Small topology's CP down for 48 h.
        let injected_hours: f64 = ledger
            .cp_outages
            .iter()
            .filter(|o| o.root_cause == crate::Cause::Injection(0))
            .map(|o| o.duration())
            .sum();
        assert!(
            (injected_hours - 48.0).abs() < 1e-6,
            "injected_hours={injected_hours}"
        );
        // 100% accounting: ledger hours equal the reported outage stats.
        let total = r.cp_outage_mean_hours * r.cp_outage_count as f64;
        assert!((ledger.cp_outage_hours() - total).abs() < 1e-9);
        // DP downtime also blames the injection.
        assert!(ledger.dp_down_host_hours[crate::Cause::Injection(0).slot()] > 40.0);
        // And the window records carry the same downtime as individual
        // start/end/cause spans.
        assert!(ledger
            .dp_windows
            .iter()
            .any(|w| w.cause == crate::Cause::Injection(0)));
    }

    #[test]
    fn dp_windows_account_for_dp_host_hours() {
        let s = spec();
        let topo = Topology::small(&s);
        let mut cfg = SimConfig::paper_defaults(Scenario::SupervisorNotRequired).accelerated(200.0);
        cfg.horizon_hours = 20_000.0;
        cfg.compute_hosts = 3;
        let sim = Simulation::try_new(&s, &topo, cfg).expect("valid simulation");
        let warmup = cfg.horizon_hours * cfg.warmup_fraction;
        let plan = crate::InjectionPlan {
            labels: vec!["kill-rack0".into()],
            events: vec![crate::PlannedEvent {
                time: 8_000.0,
                injection: 0,
                element: 0,
                action: crate::InjectAction::Fail {
                    repair_hours: Some(96.0),
                },
            }],
            crews: None,
        };
        for seed in [1, 2, 3, 4, 5] {
            let r = sim.run_injected(seed, &plan);
            let ledger = r.ledger.expect("ledger recorded");
            assert!(!ledger.dp_windows.is_empty(), "seed {seed} saw no windows");
            for w in &ledger.dp_windows {
                assert!(w.host < cfg.compute_hosts);
                assert!(w.start < w.end, "empty window {w:?}");
                assert!(w.start >= warmup && w.end <= cfg.horizon_hours);
            }
            // Per-cause window sums reproduce the aggregated host-hours
            // (accumulation order differs, hence the tolerance).
            let by_window = ledger.dp_window_hours_by_cause();
            let by_hours = &ledger.dp_down_host_hours;
            assert_eq!(by_window.len(), by_hours.len());
            for (slot, (w, h)) in by_window.iter().zip(by_hours).enumerate() {
                assert!(
                    (w - h).abs() < 1e-6,
                    "seed {seed} slot {slot}: windows {w} vs hours {h}"
                );
            }
        }
    }

    #[test]
    fn maintenance_window_suppresses_repair() {
        let s = spec();
        let topo = Topology::small(&s);
        let mut cfg = SimConfig::paper_defaults(Scenario::SupervisorNotRequired);
        cfg.horizon_hours = 5_000.0;
        cfg.compute_hosts = 2;
        let sim = Simulation::try_new(&s, &topo, cfg).expect("valid simulation");
        let plan = crate::InjectionPlan {
            labels: vec!["maint-host0".into()],
            events: vec![crate::PlannedEvent {
                time: 2_000.0,
                injection: 0,
                element: sim
                    .structure()
                    .element(&ElementRef::Host(0))
                    .expect("host 0"),
                action: crate::InjectAction::Maintenance {
                    duration_hours: 100.0,
                },
            }],
            crews: None,
        };
        let r = sim.run_injected(3, &plan);
        let ledger = r.ledger.expect("ledger recorded");
        // Small puts all three nodes on one host's VMs? No — three hosts,
        // one rack. Host 0 down for 100 h costs one of three nodes: CP
        // (2-of-3 quorums) survives, DP host-hours record the window's
        // collateral only if a second failure lands inside it. The window
        // itself must at least be applied.
        assert_eq!(ledger.injected_events, 1);
        // Events kept flowing after the window (engine didn't wedge).
        assert!(r.events > 100);
        // CP outage accounting still closes exactly.
        let total = if r.cp_outage_count > 0 {
            r.cp_outage_mean_hours * r.cp_outage_count as f64
        } else {
            0.0
        };
        assert!((ledger.cp_outage_hours() - total).abs() < 1e-9);
    }

    #[test]
    fn single_crew_stretches_concurrent_repairs() {
        let s = spec();
        let topo = Topology::large(&s);
        // Hardware-heavy regime: hosts fail often and take long to repair,
        // so a single crew must queue concurrent repairs.
        let mut cfg = fast_config(Scenario::SupervisorNotRequired);
        cfg.horizon_hours = 50_000.0;
        cfg.host = crate::ElementRates {
            mtbf: 500.0,
            mttr: 50.0,
        };
        let sim = Simulation::try_new(&s, &topo, cfg).expect("valid simulation");
        let unlimited = sim.run_injected(21, &crate::InjectionPlan::empty());
        let one_crew = sim.run_injected(
            21,
            &crate::InjectionPlan {
                crews: Some(crate::CrewPool {
                    crews: 1,
                    discipline: crate::CrewDiscipline::Fifo,
                }),
                ..crate::InjectionPlan::empty()
            },
        );
        // With 12 hosts at 10% unavailability each, one crew is saturated:
        // availability must drop measurably versus unlimited crews.
        assert!(
            one_crew.dp_availability < unlimited.dp_availability - 0.01,
            "one_crew={} unlimited={}",
            one_crew.dp_availability,
            unlimited.dp_availability
        );
    }

    #[test]
    fn latent_fault_revealed_on_failover() {
        let s = spec();
        let topo = Topology::small(&s);
        let mut cfg = SimConfig::paper_defaults(Scenario::SupervisorNotRequired);
        cfg.horizon_hours = 5_000.0;
        cfg.compute_hosts = 2;
        let sim = Simulation::try_new(&s, &topo, cfg).expect("valid simulation");
        // Find a Control-role process on node 2 to arm, then take node 0's
        // VM down: the quorum count drops, the failover reveals the latent.
        let structure = sim.structure();
        let latent = (0..structure.len())
            .find(|&elem| {
                matches!(structure.element_ref(elem), ElementRef::Proc { .. })
                    && structure
                        .cp_blocks_downed_by(elem)
                        .iter()
                        .any(|&(_, node)| node == 2)
            })
            .expect("a CP process on node 2");
        let plan = crate::InjectionPlan {
            labels: vec!["latent-n2".into(), "kill-vm0".into()],
            events: vec![
                crate::PlannedEvent {
                    time: 1_000.0,
                    injection: 0,
                    element: latent,
                    action: crate::InjectAction::Latent,
                },
                crate::PlannedEvent {
                    time: 2_000.0,
                    injection: 1,
                    element: structure.element(&ElementRef::Vm(0)).expect("VM 0"),
                    action: crate::InjectAction::Fail {
                        repair_hours: Some(10.0),
                    },
                },
            ],
            crews: None,
        };
        let r = sim.run_injected(13, &plan);
        let ledger = r.ledger.expect("ledger recorded");
        assert_eq!(ledger.injected_events, 2);
        assert_eq!(ledger.revealed_latents, 1, "latent must fire on failover");
    }

    #[test]
    fn latent_on_a_vrouter_process_is_inert() {
        // Latents arm on controller processes only: a vRouter process is
        // in no CP quorum, so no failover could ever reveal it.
        let s = spec();
        let topo = Topology::small(&s);
        let mut cfg = SimConfig::paper_defaults(Scenario::SupervisorNotRequired);
        cfg.horizon_hours = 5_000.0;
        cfg.compute_hosts = 2;
        let sim = Simulation::try_new(&s, &topo, cfg).expect("valid simulation");
        let plan = crate::InjectionPlan {
            labels: vec!["latent-vrouter".into()],
            events: vec![crate::PlannedEvent {
                time: 1_000.0,
                injection: 0,
                element: sim
                    .structure()
                    .element(&ElementRef::vproc(0, "vrouter-agent"))
                    .expect("vRouter agent on compute host 0"),
                action: crate::InjectAction::Latent,
            }],
            crews: None,
        };
        let ledger = sim.run_injected(13, &plan).ledger.expect("ledger recorded");
        assert_eq!(ledger.injected_events, 0);
        assert_eq!(ledger.revealed_latents, 0);
    }

    #[test]
    fn rack_outage_shows_up_in_small_topology() {
        // Make racks terrible: CP availability must crater in Small.
        let s = spec();
        let topo = Topology::small(&s);
        let mut cfg = fast_config(Scenario::SupervisorNotRequired);
        cfg.rack = crate::ElementRates {
            mtbf: 100.0,
            mttr: 10.0,
        };
        cfg.horizon_hours = 100_000.0;
        let r = Simulation::try_new(&s, &topo, cfg)
            .expect("valid simulation")
            .run(23);
        assert!(r.cp_availability < 0.95);
        // Large tolerates a single rack: much better.
        let large = Topology::large(&s);
        let r_large = Simulation::try_new(&s, &large, cfg)
            .expect("valid simulation")
            .run(23);
        assert!(r_large.cp_availability > r.cp_availability + 0.02);
    }
}
