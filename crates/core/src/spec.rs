//! Controller software specification: roles, processes, restart modes, and
//! quorum requirements (the paper's Fig. 1 and Tables I–III as data).

use std::collections::BTreeMap;
use std::error::Error;
use std::fmt;

use sdnav_json::{FromJson, Json, JsonError, ToJson};

/// How a failed process gets restarted.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum RestartMode {
    /// Auto-restarted by the node-role's supervisor (availability `A`).
    Auto,
    /// Requires manual restart (availability `A_S`) — e.g. `redis`, all
    /// Database processes, and the supervisor itself.
    Manual,
}

impl ToJson for RestartMode {
    fn to_json(&self) -> Json {
        Json::str(match self {
            RestartMode::Auto => "auto",
            RestartMode::Manual => "manual",
        })
    }
}

impl FromJson for RestartMode {
    fn from_json(value: &Json) -> Result<Self, JsonError> {
        match value.as_str()? {
            "auto" => Ok(RestartMode::Auto),
            "manual" => Ok(RestartMode::Manual),
            other => Err(JsonError::decode(format!(
                "unknown restart mode `{other}` (expected auto or manual)"
            ))),
        }
    }
}

/// Where a role's instances run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum RoleScope {
    /// One instance per controller node (the 2N+1 cluster).
    Controller,
    /// One instance per compute host (the vRouter forwarding role).
    PerHost,
}

impl ToJson for RoleScope {
    fn to_json(&self) -> Json {
        Json::str(match self {
            RoleScope::Controller => "controller",
            RoleScope::PerHost => "per_host",
        })
    }
}

impl FromJson for RoleScope {
    fn from_json(value: &Json) -> Result<Self, JsonError> {
        match value.as_str()? {
            "controller" => Ok(RoleScope::Controller),
            "per_host" => Ok(RoleScope::PerHost),
            other => Err(JsonError::decode(format!(
                "unknown role scope `{other}` (expected controller or per_host)"
            ))),
        }
    }
}

/// Which availability target is being analyzed.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Plane {
    /// The SDN control plane (the paper's `A_CP`).
    ControlPlane,
    /// The per-host vRouter data plane (the paper's `A_DP`).
    DataPlane,
}

impl ToJson for Plane {
    fn to_json(&self) -> Json {
        Json::str(match self {
            Plane::ControlPlane => "control_plane",
            Plane::DataPlane => "data_plane",
        })
    }
}

impl FromJson for Plane {
    fn from_json(value: &Json) -> Result<Self, JsonError> {
        match value.as_str()? {
            "control_plane" => Ok(Plane::ControlPlane),
            "data_plane" => Ok(Plane::DataPlane),
            other => Err(JsonError::decode(format!(
                "unknown plane `{other}` (expected control_plane or data_plane)"
            ))),
        }
    }
}

/// One process within a role (a row of the paper's Table I).
#[derive(Debug, Clone, PartialEq)]
pub struct ProcessSpec {
    /// Process name, unique within its role (e.g. `config-api`).
    pub name: String,
    /// Restart mode (drives Table II).
    pub restart: RestartMode,
    /// Control-plane quorum: how many of the `n` node instances must be up
    /// (`0` = not required; the paper's "m of 3" CP column of Table I).
    pub cp_required: u32,
    /// Data-plane quorum requirement (the "m of 3" Host DP column).
    pub dp_required: u32,
    /// Optional control-plane block label: processes of the same role with
    /// the same label form a single series block counted once. Omitted from
    /// JSON when absent.
    pub cp_group: Option<String>,
    /// Optional data-plane block label, e.g. the paper's
    /// `{control + dns + named}` block, which is "modeled as a single
    /// process with availability A³" (Table III footnote). Omitted from
    /// JSON when absent.
    pub dp_group: Option<String>,
    /// Whether this process is the role's supervisor (JSON default: false).
    pub is_supervisor: bool,
    /// Downtime multiplier relative to the baseline process of its restart
    /// mode (§VI.A: "we can easily expand to K process types if lab/field
    /// data for F suggest the need to do so", e.g. new vs mature code).
    /// `1.0` = baseline; `10.0` = an immature process with 10× the
    /// unavailability; `0.1` = a hardened one (JSON default: 1.0).
    pub downtime_factor: f64,
}

impl ToJson for ProcessSpec {
    fn to_json(&self) -> Json {
        let mut fields = vec![
            ("name", Json::str(self.name.clone())),
            ("restart", self.restart.to_json()),
            ("cp_required", self.cp_required.to_json()),
            ("dp_required", self.dp_required.to_json()),
        ];
        if let Some(g) = &self.cp_group {
            fields.push(("cp_group", Json::str(g.clone())));
        }
        if let Some(g) = &self.dp_group {
            fields.push(("dp_group", Json::str(g.clone())));
        }
        fields.push(("is_supervisor", Json::Bool(self.is_supervisor)));
        fields.push(("downtime_factor", Json::Num(self.downtime_factor)));
        Json::obj(fields)
    }
}

impl FromJson for ProcessSpec {
    fn from_json(value: &Json) -> Result<Self, JsonError> {
        let opt_str = |name: &str| -> Result<Option<String>, JsonError> {
            match value.get(name) {
                None | Some(Json::Null) => Ok(None),
                Some(v) => v
                    .as_str()
                    .map(|s| Some(s.to_owned()))
                    .map_err(|e| e.ctx(name)),
            }
        };
        Ok(ProcessSpec {
            name: String::from_json(value.field("name")?).map_err(|e| e.ctx("name"))?,
            restart: RestartMode::from_json(value.field("restart")?)
                .map_err(|e| e.ctx("restart"))?,
            cp_required: value
                .field("cp_required")?
                .as_u32()
                .map_err(|e| e.ctx("cp_required"))?,
            dp_required: value
                .field("dp_required")?
                .as_u32()
                .map_err(|e| e.ctx("dp_required"))?,
            cp_group: opt_str("cp_group")?,
            dp_group: opt_str("dp_group")?,
            is_supervisor: match value.get("is_supervisor") {
                None | Some(Json::Null) => false,
                Some(v) => v.as_bool().map_err(|e| e.ctx("is_supervisor"))?,
            },
            downtime_factor: match value.get("downtime_factor") {
                None | Some(Json::Null) => 1.0,
                Some(v) => v.as_f64().map_err(|e| e.ctx("downtime_factor"))?,
            },
        })
    }
}

impl ProcessSpec {
    /// Creates a required-nowhere process (supervisor/nodemgr style);
    /// customize with the builder-style setters.
    #[must_use]
    pub fn new(name: impl Into<String>, restart: RestartMode) -> Self {
        ProcessSpec {
            name: name.into(),
            restart,
            cp_required: 0,
            dp_required: 0,
            cp_group: None,
            dp_group: None,
            is_supervisor: false,
            downtime_factor: 1.0,
        }
    }

    /// Sets the downtime multiplier (see [`ProcessSpec::downtime_factor`]).
    #[must_use]
    pub fn with_downtime_factor(mut self, factor: f64) -> Self {
        self.downtime_factor = factor;
        self
    }

    /// Sets the control-plane quorum requirement.
    #[must_use]
    pub fn cp(mut self, required: u32) -> Self {
        self.cp_required = required;
        self
    }

    /// Sets the data-plane quorum requirement.
    #[must_use]
    pub fn dp(mut self, required: u32) -> Self {
        self.dp_required = required;
        self
    }

    /// Puts the process in a named data-plane series block.
    #[must_use]
    pub fn dp_grouped(mut self, group: impl Into<String>, required: u32) -> Self {
        self.dp_group = Some(group.into());
        self.dp_required = required;
        self
    }

    /// Marks the process as the role's supervisor.
    #[must_use]
    pub fn supervisor(mut self) -> Self {
        self.is_supervisor = true;
        self
    }

    /// Whether the process is required (has a nonzero quorum) in `plane`.
    #[must_use]
    pub fn required_in(&self, plane: Plane) -> bool {
        self.quorum_in(plane).1 > 0
    }

    /// The process's series-block label and quorum requirement in `plane`.
    fn quorum_in(&self, plane: Plane) -> (Option<&str>, u32) {
        match plane {
            Plane::ControlPlane => (self.cp_group.as_deref(), self.cp_required),
            Plane::DataPlane => (self.dp_group.as_deref(), self.dp_required),
        }
    }
}

/// One role (node type) of the controller.
#[derive(Debug, Clone, PartialEq)]
pub struct RoleSpec {
    /// Role name (e.g. `Config`, `Control`, `Analytics`, `Database`).
    pub name: String,
    /// Where instances run.
    pub scope: RoleScope,
    /// The role's processes.
    pub processes: Vec<ProcessSpec>,
}

impl RoleSpec {
    /// Creates a role.
    #[must_use]
    pub fn new(name: impl Into<String>, scope: RoleScope, processes: Vec<ProcessSpec>) -> Self {
        RoleSpec {
            name: name.into(),
            scope,
            processes,
        }
    }

    /// The role's supervisor process, if it has one.
    #[must_use]
    pub fn supervisor(&self) -> Option<&ProcessSpec> {
        self.processes.iter().find(|p| p.is_supervisor)
    }

    /// The role-as-atomic-element quorum used by the HW-centric analysis:
    /// the strictest control-plane requirement among the role's processes
    /// (`1` for Config/Control/Analytics, `2` for Database in OpenContrail).
    #[must_use]
    pub fn hw_quorum(&self) -> u32 {
        self.processes
            .iter()
            .map(|p| p.cp_required)
            .max()
            .unwrap_or(0)
    }
}

/// Counts of required processes by restart mode for one role (a column of
/// the paper's Table II).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RestartCount {
    /// Role name.
    pub role: String,
    /// Number of auto-restarted required processes.
    pub auto: usize,
    /// Number of manually restarted required processes.
    pub manual: usize,
}

/// Counts of quorum requirements by type for one role and plane (a row of
/// the paper's Table III).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct QuorumCount {
    /// Role name.
    pub role: String,
    /// `M_R`: number of "2 of n" requirements.
    pub m: usize,
    /// `N_R`: number of "1 of n" requirements (grouped blocks count once).
    pub n: usize,
}

/// A resolved quorum requirement: one process (or grouped series block) of
/// one role, with the number of node instances that must be up.
#[derive(Debug, Clone, PartialEq)]
pub struct Requirement {
    /// Index of the role in [`ControllerSpec::roles`].
    pub role_index: usize,
    /// How many node instances must be up (`m` in "m of n").
    pub required: u32,
    /// Display label (process name, or `{a+b+c}` for a block).
    pub label: String,
    /// Names of the block's member processes (one entry for a plain
    /// process requirement).
    pub members: Vec<String>,
    /// Restart modes of the block's member processes; the instance
    /// availability is the product of the members' availabilities.
    pub member_modes: Vec<RestartMode>,
    /// Downtime multipliers of the member processes (parallel to
    /// `member_modes`).
    pub member_factors: Vec<f64>,
}

impl Requirement {
    /// Availability of one node's instance of this requirement: the
    /// product of the member processes' availabilities under `params`,
    /// each adjusted by its downtime factor.
    #[must_use]
    pub fn instance_availability(&self, params: &crate::ProcessParams) -> f64 {
        self.member_modes
            .iter()
            .zip(&self.member_factors)
            .map(|(&mode, &factor)| (1.0 - (1.0 - params.for_mode(mode)) * factor).clamp(0.0, 1.0))
            .product()
    }
}

/// A complete controller software specification.
///
/// Encapsulates everything the paper's models need to know about the
/// controller implementation. [`ControllerSpec::opencontrail_3x`] is the
/// paper's reference; build your own to model a different controller.
#[derive(Debug, Clone, PartialEq)]
pub struct ControllerSpec {
    /// Implementation name (e.g. `OpenContrail 3.x`).
    pub name: String,
    /// Cluster size `n = 2N+1` (the paper analyzes `n = 3`).
    pub nodes: u32,
    /// The roles, controller-scoped first by convention.
    pub roles: Vec<RoleSpec>,
    /// Optional unit-annotated rate overrides (see [`crate::SpecRates`]).
    /// `None` means "paper defaults everywhere"; omitted from JSON when
    /// absent.
    pub rates: Option<crate::SpecRates>,
    /// Optional consensus-protocol block (see [`crate::ConsensusSpec`]).
    /// `None` means "static k-of-n quorum counting, exactly as the paper
    /// models the control plane"; omitted from JSON when absent.
    pub consensus: Option<crate::ConsensusSpec>,
}

impl ToJson for RoleSpec {
    fn to_json(&self) -> Json {
        Json::obj(vec![
            ("name", Json::str(self.name.clone())),
            ("scope", self.scope.to_json()),
            ("processes", self.processes.to_json()),
        ])
    }
}

impl FromJson for RoleSpec {
    fn from_json(value: &Json) -> Result<Self, JsonError> {
        Ok(RoleSpec {
            name: String::from_json(value.field("name")?).map_err(|e| e.ctx("name"))?,
            scope: RoleScope::from_json(value.field("scope")?).map_err(|e| e.ctx("scope"))?,
            processes: Vec::from_json(value.field("processes")?).map_err(|e| e.ctx("processes"))?,
        })
    }
}

impl ToJson for ControllerSpec {
    fn to_json(&self) -> Json {
        let mut fields = vec![
            ("name", Json::str(self.name.clone())),
            ("nodes", self.nodes.to_json()),
            ("roles", self.roles.to_json()),
        ];
        if let Some(r) = &self.rates {
            fields.push(("rates", r.to_json()));
        }
        if let Some(c) = &self.consensus {
            fields.push(("consensus", c.to_json()));
        }
        Json::obj(fields)
    }
}

impl FromJson for ControllerSpec {
    fn from_json(value: &Json) -> Result<Self, JsonError> {
        Ok(ControllerSpec {
            name: String::from_json(value.field("name")?).map_err(|e| e.ctx("name"))?,
            nodes: value.field("nodes")?.as_u32().map_err(|e| e.ctx("nodes"))?,
            roles: Vec::from_json(value.field("roles")?).map_err(|e| e.ctx("roles"))?,
            rates: match value.get("rates") {
                None | Some(Json::Null) => None,
                Some(v) => Some(crate::SpecRates::from_json(v).map_err(|e| e.ctx("rates"))?),
            },
            consensus: match value.get("consensus") {
                None | Some(Json::Null) => None,
                Some(v) => {
                    Some(crate::ConsensusSpec::from_json(v).map_err(|e| e.ctx("consensus"))?)
                }
            },
        })
    }
}

impl ControllerSpec {
    /// The paper's reference controller: OpenContrail 3.x, transcribing
    /// Fig. 1 and Table I.
    ///
    /// * Config: six auto-restarted processes, all "1 of 3" for the CP;
    ///   `discovery` also "1 of 3" for the DP.
    /// * Control: `control` ("1 of 3" CP) plus `dns`/`named` (CP-optional);
    ///   all three form the `{control+dns+named}` "1 of 3" DP block.
    /// * Analytics: four auto processes plus the manually restarted
    ///   `redis`, all "1 of 3" CP.
    /// * Database: four manually restarted "2 of 3" quorum processes.
    /// * vRouter (per host): `vrouter-agent` and `vrouter-dpdk`, both "1 of
    ///   1" for that host's DP.
    ///
    /// Every role additionally has a `supervisor` (manual restart) and a
    /// `nodemgr` (auto), both "0 of 3" — present for completeness and used
    /// by the FMEA and simulator layers.
    #[must_use]
    pub fn opencontrail_3x() -> Self {
        use RestartMode::{Auto, Manual};
        let common = |procs: &mut Vec<ProcessSpec>| {
            procs.push(ProcessSpec::new("supervisor", Manual).supervisor());
            procs.push(ProcessSpec::new("nodemgr", Auto));
        };

        let mut config = vec![
            ProcessSpec::new("config-api", Auto).cp(1),
            ProcessSpec::new("discovery", Auto).cp(1).dp(1),
            ProcessSpec::new("schema", Auto).cp(1),
            ProcessSpec::new("svc-monitor", Auto).cp(1),
            ProcessSpec::new("ifmap", Auto).cp(1),
            ProcessSpec::new("device-manager", Auto).cp(1),
        ];
        common(&mut config);

        let dp_block = "control+dns+named";
        let mut control = vec![
            ProcessSpec::new("control", Auto)
                .cp(1)
                .dp_grouped(dp_block, 1),
            ProcessSpec::new("dns", Auto).dp_grouped(dp_block, 1),
            ProcessSpec::new("named", Auto).dp_grouped(dp_block, 1),
        ];
        common(&mut control);

        let mut analytics = vec![
            ProcessSpec::new("analytics-api", Auto).cp(1),
            ProcessSpec::new("alarm-gen", Auto).cp(1),
            ProcessSpec::new("collector", Auto).cp(1),
            ProcessSpec::new("query-engine", Auto).cp(1),
            ProcessSpec::new("redis", Manual).cp(1),
        ];
        common(&mut analytics);

        let mut database = vec![
            ProcessSpec::new("cassandra-db-config", Manual).cp(2),
            ProcessSpec::new("cassandra-db-analytics", Manual).cp(2),
            ProcessSpec::new("kafka", Manual).cp(2),
            ProcessSpec::new("zookeeper", Manual).cp(2),
        ];
        common(&mut database);

        let mut vrouter = vec![
            ProcessSpec::new("vrouter-agent", Auto).dp(1),
            ProcessSpec::new("vrouter-dpdk", Auto).dp(1),
        ];
        common(&mut vrouter);

        let spec = ControllerSpec {
            name: "OpenContrail 3.x".to_owned(),
            nodes: 3,
            roles: vec![
                RoleSpec::new("Config", RoleScope::Controller, config),
                RoleSpec::new("Control", RoleScope::Controller, control),
                RoleSpec::new("Analytics", RoleScope::Controller, analytics),
                RoleSpec::new("Database", RoleScope::Controller, database),
                RoleSpec::new("vRouter", RoleScope::PerHost, vrouter),
            ],
            rates: None,
            consensus: None,
        };
        spec.validate().expect("reference spec is valid");
        spec
    }

    /// The kernel-mode vRouter deployment variant: §II notes the vRouter
    /// module runs "in kernel space (optionally replaced by the vRouter
    /// DPDK module running in user space)". In kernel mode the forwarding
    /// module is part of the host kernel rather than a restartable user
    /// process, so the per-host critical process set shrinks to just
    /// `vrouter-agent` (the paper's `K` drops from 2 to 1).
    ///
    /// ```
    /// use sdnav_core::ControllerSpec;
    /// let spec = ControllerSpec::opencontrail_3x_kernel_mode();
    /// assert_eq!(spec.local_dp_processes().len(), 1);
    /// ```
    #[must_use]
    pub fn opencontrail_3x_kernel_mode() -> Self {
        let mut spec = ControllerSpec::opencontrail_3x();
        spec.name = "OpenContrail 3.x (kernel-mode vRouter)".to_owned();
        for role in &mut spec.roles {
            if role.scope == RoleScope::PerHost {
                role.processes.retain(|p| p.name != "vrouter-dpdk");
            }
        }
        spec.validate().expect("kernel-mode variant is valid");
        spec
    }

    /// Generalizes the spec to a `2N+1`-node cluster (the paper:
    /// "Generalization to N > 1 is straightforward").
    ///
    /// Quorum ("2 of 3") processes become majority quorums
    /// (`⌊nodes/2⌋ + 1` of `nodes`); "1 of n" and "0 of n" processes keep
    /// their requirement. Per-host roles are unchanged.
    ///
    /// ```
    /// use sdnav_core::ControllerSpec;
    ///
    /// let five = ControllerSpec::opencontrail_3x().scaled_cluster(5);
    /// assert_eq!(five.nodes, 5);
    /// let zk = five.role("Database").unwrap()
    ///     .processes.iter().find(|p| p.name == "zookeeper").unwrap();
    /// assert_eq!(zk.cp_required, 3); // 3-of-5 majority
    /// ```
    ///
    /// # Panics
    ///
    /// Panics if `nodes` is even or zero (quorum clusters are `2N+1`).
    #[must_use]
    pub fn scaled_cluster(&self, nodes: u32) -> Self {
        assert!(
            nodes % 2 == 1 && nodes > 0,
            "quorum clusters are 2N+1 nodes, got {nodes}"
        );
        let majority = nodes / 2 + 1;
        let old_majority = self.nodes / 2 + 1;
        let mut out = self.clone();
        out.nodes = nodes;
        for role in &mut out.roles {
            if role.scope != RoleScope::Controller {
                continue;
            }
            for p in &mut role.processes {
                if p.cp_required >= old_majority {
                    p.cp_required = majority;
                }
                if p.dp_required >= old_majority {
                    p.dp_required = majority;
                }
            }
        }
        out.validate().expect("scaling preserves validity");
        out
    }

    /// Roles whose instances run on controller nodes.
    pub fn controller_roles(&self) -> impl Iterator<Item = (usize, &RoleSpec)> {
        self.roles
            .iter()
            .enumerate()
            .filter(|(_, r)| r.scope == RoleScope::Controller)
    }

    /// Roles whose instances run on every compute host (the vRouter).
    pub fn per_host_roles(&self) -> impl Iterator<Item = &RoleSpec> {
        self.roles.iter().filter(|r| r.scope == RoleScope::PerHost)
    }

    /// Looks up a role by name.
    #[must_use]
    pub fn role(&self, name: &str) -> Option<&RoleSpec> {
        self.roles.iter().find(|r| r.name == name)
    }

    /// Checks internal consistency.
    ///
    /// # Errors
    ///
    /// Returns the first [`SpecError`] of [`ControllerSpec::violations`].
    pub fn validate(&self) -> Result<(), SpecError> {
        self.violations().into_iter().next().map_or(Ok(()), Err)
    }

    /// Every rule the spec breaks, in check order (empty, with nothing
    /// allocated, for a valid spec). A duplicated name is reported once,
    /// at its first repeat, and an oversized quorum once per plane.
    #[must_use]
    pub fn violations(&self) -> Vec<SpecError> {
        let mut out = Vec::new();
        if self.nodes == 0 {
            out.push(SpecError::EmptyCluster);
        }
        if self.roles.is_empty() {
            out.push(SpecError::NoRoles);
        }
        if let Some(e) = self.consensus.as_ref().and_then(|c| c.validate().err()) {
            out.push(SpecError::BadConsensus(e));
        }
        for (i, role) in self.roles.iter().enumerate() {
            let name = || role.name.clone();
            let same_role = |r: &&RoleSpec| r.name == role.name;
            if self.roles[..i].iter().filter(same_role).count() == 1 {
                let count = self.roles.iter().filter(same_role).count();
                out.push(SpecError::DuplicateRole {
                    role: name(),
                    count,
                });
            }
            let bound = match role.scope {
                RoleScope::Controller => self.nodes,
                RoleScope::PerHost => 1,
            };
            for (j, p) in role.processes.iter().enumerate() {
                let process = || p.name.clone();
                let same_process = |q: &&ProcessSpec| q.name == p.name;
                if role.processes[..j].iter().filter(same_process).count() == 1 {
                    out.push(SpecError::DuplicateProcess {
                        role: name(),
                        process: process(),
                        count: role.processes.iter().filter(same_process).count(),
                    });
                }
                if !p.downtime_factor.is_finite() || p.downtime_factor < 0.0 {
                    out.push(SpecError::BadDowntimeFactor {
                        role: name(),
                        process: process(),
                        factor: p.downtime_factor,
                    });
                }
                for (field, required) in [
                    ("cp_required", p.cp_required),
                    ("dp_required", p.dp_required),
                ] {
                    if required > bound {
                        out.push(SpecError::QuorumTooLarge {
                            role: name(),
                            process: process(),
                            bound,
                            scope: role.scope,
                            field,
                            required,
                        });
                    }
                }
            }
            let count = role.processes.iter().filter(|p| p.is_supervisor).count();
            if count > 1 {
                out.push(SpecError::MultipleSupervisors {
                    role: name(),
                    count,
                });
            }
            // Group members must agree with the group's first member.
            for (plane, field) in [(Plane::ControlPlane, "cp"), (Plane::DataPlane, "dp")] {
                for (j, p) in role.processes.iter().enumerate() {
                    let (Some(group), required) = p.quorum_in(plane) else {
                        continue;
                    };
                    let first = role.processes[..j]
                        .iter()
                        .map(|q| q.quorum_in(plane))
                        .find(|&(g, _)| g == Some(group));
                    if let Some((_, expected)) = first.filter(|&(_, e)| e != required) {
                        out.push(SpecError::InconsistentGroup {
                            role: name(),
                            field,
                            group: group.to_owned(),
                            process: p.name.clone(),
                            expected,
                            required,
                        });
                    }
                }
            }
        }
        out
    }

    /// Resolves the quorum requirements of `plane` for controller-scoped
    /// roles: one [`Requirement`] per required process, with grouped
    /// processes merged into a single series-block requirement.
    #[must_use]
    pub fn requirements(&self, plane: Plane) -> Vec<Requirement> {
        let mut out = Vec::new();
        for (role_index, role) in self.controller_roles() {
            let mut seen_groups: BTreeMap<String, usize> = BTreeMap::new();
            for p in &role.processes {
                let (group, required) = p.quorum_in(plane);
                match group {
                    Some(g) => {
                        if let Some(&idx) = seen_groups.get(g) {
                            let req: &mut Requirement = &mut out[idx];
                            req.members.push(p.name.clone());
                            req.member_modes.push(p.restart);
                            req.member_factors.push(p.downtime_factor);
                            req.label = format!("{{{}}}", req.members.join("+"));
                            continue;
                        }
                        if required == 0 {
                            continue;
                        }
                        seen_groups.insert(g.to_owned(), out.len());
                        out.push(Requirement {
                            role_index,
                            required,
                            label: format!("{{{}}}", p.name),
                            members: vec![p.name.clone()],
                            member_modes: vec![p.restart],
                            member_factors: vec![p.downtime_factor],
                        });
                    }
                    None => {
                        if required == 0 {
                            continue;
                        }
                        out.push(Requirement {
                            role_index,
                            required,
                            label: p.name.clone(),
                            members: vec![p.name.clone()],
                            member_modes: vec![p.restart],
                            member_factors: vec![p.downtime_factor],
                        });
                    }
                }
            }
        }
        out
    }

    /// The paper's Table II: counts of required processes by restart mode,
    /// per controller role. A process counts if it is required in *either*
    /// plane (supervisor and nodemgr, required in neither, are excluded —
    /// matching the paper's counts).
    #[must_use]
    pub fn restart_counts(&self) -> Vec<RestartCount> {
        self.controller_roles()
            .map(|(_, role)| {
                let required = role.processes.iter().filter(|p| {
                    p.required_in(Plane::ControlPlane) || p.required_in(Plane::DataPlane)
                });
                let (mut auto, mut manual) = (0, 0);
                for p in required {
                    match p.restart {
                        RestartMode::Auto => auto += 1,
                        RestartMode::Manual => manual += 1,
                    }
                }
                RestartCount {
                    role: role.name.clone(),
                    auto,
                    manual,
                }
            })
            .collect()
    }

    /// The paper's Table III: counts of quorum requirements by type
    /// (`M_R` = "2 of n", `N_R` = "1 of n") per controller role and plane.
    /// Grouped blocks count once, exactly as the paper's footnote
    /// prescribes for `{control+dns+named}`.
    #[must_use]
    pub fn quorum_counts(&self, plane: Plane) -> Vec<QuorumCount> {
        let reqs = self.requirements(plane);
        self.controller_roles()
            .map(|(role_index, role)| {
                let m = reqs
                    .iter()
                    .filter(|r| r.role_index == role_index && r.required == 2)
                    .count();
                let n = reqs
                    .iter()
                    .filter(|r| r.role_index == role_index && r.required == 1)
                    .count();
                QuorumCount {
                    role: role.name.clone(),
                    m,
                    n,
                }
            })
            .collect()
    }

    /// The per-host data-plane processes that must all be up for a host's
    /// DP (the paper's `K`; `vrouter-agent` and `vrouter-dpdk`, so `K = 2`).
    #[must_use]
    pub fn local_dp_processes(&self) -> Vec<&ProcessSpec> {
        self.per_host_roles()
            .flat_map(|r| r.processes.iter())
            .filter(|p| p.dp_required > 0)
            .collect()
    }

    /// Whether the per-host role has a supervisor (needed for the paper's
    /// `A_LDP = A^K · A_S` in the supervisor-required scenario).
    #[must_use]
    pub fn per_host_has_supervisor(&self) -> bool {
        self.per_host_roles().any(|r| r.supervisor().is_some())
    }

    /// Total number of processes across all roles (Fig. 1 has 30 for
    /// OpenContrail 3.x: 8+5+7+6 controller-role processes plus 4 vRouter).
    #[must_use]
    pub fn process_count(&self) -> usize {
        self.roles.iter().map(|r| r.processes.len()).sum()
    }
}

/// Validation errors for a [`ControllerSpec`].
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum SpecError {
    /// `nodes` was zero.
    EmptyCluster,
    /// The spec has no roles.
    NoRoles,
    /// Two roles share a name.
    DuplicateRole {
        /// The duplicated role name.
        role: String,
        /// How many roles carry it.
        count: usize,
    },
    /// Two processes within a role share a name.
    DuplicateProcess {
        /// The role containing the duplicates.
        role: String,
        /// The duplicated process name.
        process: String,
        /// How many of the role's processes carry it.
        count: usize,
    },
    /// A quorum requirement exceeds the number of instances.
    QuorumTooLarge {
        /// The role.
        role: String,
        /// The offending process.
        process: String,
        /// The maximum allowed requirement.
        bound: u32,
        /// The role's scope, which sets the bound.
        scope: RoleScope,
        /// The offending field (`cp_required` or `dp_required`).
        field: &'static str,
        /// The requirement it declares.
        required: u32,
    },
    /// Group members disagree about the group's requirement.
    InconsistentGroup {
        /// The role.
        role: String,
        /// The plane of the group (`cp` or `dp`).
        field: &'static str,
        /// The group label.
        group: String,
        /// The member that disagrees with the group's first member.
        process: String,
        /// The first member's requirement.
        expected: u32,
        /// The disagreeing member's requirement.
        required: u32,
    },
    /// A role has more than one supervisor process.
    MultipleSupervisors {
        /// The role.
        role: String,
        /// How many of its processes are supervisors.
        count: usize,
    },
    /// A process has a negative or non-finite downtime factor.
    BadDowntimeFactor {
        /// The role.
        role: String,
        /// The offending process.
        process: String,
        /// The rejected factor.
        factor: f64,
    },
    /// The optional consensus block is structurally invalid.
    BadConsensus(crate::ConsensusError),
}

impl fmt::Display for SpecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SpecError::EmptyCluster => write!(f, "cluster must have at least one node"),
            SpecError::NoRoles => write!(f, "controller spec has no roles"),
            SpecError::DuplicateRole { role, count } => {
                write!(f, "duplicate role {role:?} (declared {count} times)")
            }
            SpecError::DuplicateProcess {
                role,
                process,
                count,
            } => write!(
                f,
                "duplicate process {process:?} in role {role:?} (appears {count} times)"
            ),
            SpecError::QuorumTooLarge {
                role,
                process,
                bound,
                scope,
                field,
                required,
            } => write!(
                f,
                "process {process:?} in role {role:?} requires more than {bound} instances \
                 ({field} = {required}, {scope:?} scope)"
            ),
            SpecError::InconsistentGroup {
                role,
                field,
                group,
                process,
                expected,
                required,
            } => write!(
                f,
                "{field} group {group:?} in role {role:?} has inconsistent quorum \
                 requirements ({expected} vs {required} for {process:?})"
            ),
            SpecError::MultipleSupervisors { role, count } => {
                write!(f, "role {role:?} has {count} supervisor processes")
            }
            SpecError::BadDowntimeFactor {
                role,
                process,
                factor,
            } => write!(
                f,
                "process {process:?} in role {role:?} has an invalid downtime factor {factor}"
            ),
            SpecError::BadConsensus(e) => write!(f, "consensus block: {e}"),
        }
    }
}

impl Error for SpecError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn opencontrail_spec_is_valid() {
        let spec = ControllerSpec::opencontrail_3x();
        assert!(spec.validate().is_ok());
        assert_eq!(spec.nodes, 3);
        assert_eq!(spec.roles.len(), 5);
    }

    #[test]
    fn table_2_restart_counts_match_paper() {
        let spec = ControllerSpec::opencontrail_3x();
        let counts = spec.restart_counts();
        let get = |role: &str| counts.iter().find(|c| c.role == role).unwrap();
        assert_eq!((get("Config").auto, get("Config").manual), (6, 0));
        assert_eq!((get("Control").auto, get("Control").manual), (3, 0));
        assert_eq!((get("Analytics").auto, get("Analytics").manual), (4, 1));
        assert_eq!((get("Database").auto, get("Database").manual), (0, 4));
    }

    #[test]
    fn table_3_cp_quorum_counts_match_paper() {
        let spec = ControllerSpec::opencontrail_3x();
        let counts = spec.quorum_counts(Plane::ControlPlane);
        let get = |role: &str| counts.iter().find(|c| c.role == role).unwrap();
        assert_eq!((get("Config").m, get("Config").n), (0, 6));
        assert_eq!((get("Control").m, get("Control").n), (0, 1));
        assert_eq!((get("Analytics").m, get("Analytics").n), (0, 5));
        assert_eq!((get("Database").m, get("Database").n), (4, 0));
        let total_m: usize = counts.iter().map(|c| c.m).sum();
        let total_n: usize = counts.iter().map(|c| c.n).sum();
        assert_eq!((total_m, total_n), (4, 12)); // paper's "Sums" row
    }

    #[test]
    fn table_3_dp_quorum_counts_match_paper() {
        let spec = ControllerSpec::opencontrail_3x();
        let counts = spec.quorum_counts(Plane::DataPlane);
        let get = |role: &str| counts.iter().find(|c| c.role == role).unwrap();
        assert_eq!((get("Config").m, get("Config").n), (0, 1));
        assert_eq!((get("Control").m, get("Control").n), (0, 1)); // the block
        assert_eq!((get("Analytics").m, get("Analytics").n), (0, 0));
        assert_eq!((get("Database").m, get("Database").n), (0, 0));
        let total_n: usize = counts.iter().map(|c| c.n).sum();
        assert_eq!(total_n, 2);
    }

    #[test]
    fn control_dp_block_has_three_members() {
        let spec = ControllerSpec::opencontrail_3x();
        let reqs = spec.requirements(Plane::DataPlane);
        let block = reqs
            .iter()
            .find(|r| r.label.starts_with('{'))
            .expect("control block present");
        assert_eq!(block.member_modes.len(), 3);
        assert_eq!(block.required, 1);
        assert!(block.label.contains("control"));
        assert!(block.label.contains("dns"));
        assert!(block.label.contains("named"));
    }

    #[test]
    fn cp_requirements_total_sixteen() {
        // 4 M-type + 12 N-type requirements (Table III sums).
        let spec = ControllerSpec::opencontrail_3x();
        assert_eq!(spec.requirements(Plane::ControlPlane).len(), 16);
    }

    #[test]
    fn local_dp_processes_k_equals_two() {
        let spec = ControllerSpec::opencontrail_3x();
        let local = spec.local_dp_processes();
        assert_eq!(local.len(), 2);
        assert!(spec.per_host_has_supervisor());
    }

    #[test]
    fn hw_quorums_derive_from_processes() {
        let spec = ControllerSpec::opencontrail_3x();
        assert_eq!(spec.role("Config").unwrap().hw_quorum(), 1);
        assert_eq!(spec.role("Control").unwrap().hw_quorum(), 1);
        assert_eq!(spec.role("Analytics").unwrap().hw_quorum(), 1);
        assert_eq!(spec.role("Database").unwrap().hw_quorum(), 2);
    }

    #[test]
    fn every_role_has_supervisor_and_nodemgr() {
        // §III: "there are five supervisors and five nodemgrs".
        let spec = ControllerSpec::opencontrail_3x();
        for role in &spec.roles {
            assert!(
                role.supervisor().is_some(),
                "{} lacks supervisor",
                role.name
            );
            assert!(
                role.processes.iter().any(|p| p.name == "nodemgr"),
                "{} lacks nodemgr",
                role.name
            );
        }
    }

    #[test]
    fn supervisors_are_manual_restart() {
        let spec = ControllerSpec::opencontrail_3x();
        for role in &spec.roles {
            assert_eq!(role.supervisor().unwrap().restart, RestartMode::Manual);
        }
    }

    #[test]
    fn process_count_matches_fig_1() {
        // Fig. 1: per-role process counts including supervisor + nodemgr:
        // Config 8, Control 5, Analytics 7, Database 6, vRouter 4.
        let spec = ControllerSpec::opencontrail_3x();
        let count = |role: &str| spec.role(role).unwrap().processes.len();
        assert_eq!(count("Config"), 8);
        assert_eq!(count("Control"), 5);
        assert_eq!(count("Analytics"), 7);
        assert_eq!(count("Database"), 6);
        assert_eq!(count("vRouter"), 4);
        assert_eq!(spec.process_count(), 30);
    }

    #[test]
    fn downtime_factor_defaults_and_serde() {
        let spec = ControllerSpec::opencontrail_3x();
        assert!(spec
            .roles
            .iter()
            .flat_map(|r| &r.processes)
            .all(|p| p.downtime_factor == 1.0));
        // Old JSON without the field still parses (decoder default).
        let json = r#"{"name":"config-api","restart":"auto","cp_required":1,"dp_required":0}"#;
        let p: ProcessSpec = sdnav_json::from_str(json).unwrap();
        assert_eq!(p.downtime_factor, 1.0);
        // Builder sets it.
        let q = ProcessSpec::new("new-code", RestartMode::Auto).with_downtime_factor(10.0);
        assert_eq!(q.downtime_factor, 10.0);
    }

    #[test]
    fn validation_rejects_bad_downtime_factor() {
        let mut spec = ControllerSpec::opencontrail_3x();
        spec.roles[0].processes[0].downtime_factor = -1.0;
        assert!(matches!(
            spec.validate(),
            Err(SpecError::BadDowntimeFactor { .. })
        ));
        spec.roles[0].processes[0].downtime_factor = f64::NAN;
        assert!(spec.validate().is_err());
    }

    #[test]
    fn requirement_instance_availability_uses_factors() {
        let params = crate::ProcessParams::paper_defaults();
        let mut spec = ControllerSpec::opencontrail_3x();
        // Make ifmap 10x less reliable.
        let cfg = spec.roles.iter_mut().find(|r| r.name == "Config").unwrap();
        let ifmap = cfg
            .processes
            .iter_mut()
            .find(|p| p.name == "ifmap")
            .unwrap();
        ifmap.downtime_factor = 10.0;
        let reqs = spec.requirements(Plane::ControlPlane);
        let ifmap_req = reqs.iter().find(|r| r.label == "ifmap").unwrap();
        let expected = 1.0 - 10.0 * (1.0 - params.auto);
        assert!((ifmap_req.instance_availability(&params) - expected).abs() < 1e-12);
        // Unmodified processes keep the baseline.
        let schema_req = reqs.iter().find(|r| r.label == "schema").unwrap();
        assert!((schema_req.instance_availability(&params) - params.auto).abs() < 1e-15);
    }

    #[test]
    fn kernel_mode_variant_drops_dpdk() {
        let spec = ControllerSpec::opencontrail_3x_kernel_mode();
        assert_eq!(spec.local_dp_processes().len(), 1);
        assert_eq!(spec.local_dp_processes()[0].name, "vrouter-agent");
        // Controller-side tables are untouched.
        assert_eq!(
            spec.quorum_counts(Plane::ControlPlane),
            ControllerSpec::opencontrail_3x().quorum_counts(Plane::ControlPlane)
        );
        assert!(spec.per_host_has_supervisor());
    }

    #[test]
    fn scaled_cluster_five_nodes() {
        let spec = ControllerSpec::opencontrail_3x();
        let five = spec.scaled_cluster(5);
        assert_eq!(five.nodes, 5);
        // Quorum processes become 3-of-5; 1-of-n stay 1; 0-of-n stay 0.
        let db = five.role("Database").unwrap();
        assert!(db.processes.iter().filter(|p| p.cp_required == 3).count() == 4);
        let cfg = five.role("Config").unwrap();
        assert!(cfg
            .processes
            .iter()
            .filter(|p| p.cp_required > 0)
            .all(|p| p.cp_required == 1));
        // Per-host vRouter untouched.
        let vr = five.role("vRouter").unwrap();
        assert!(vr.processes.iter().all(|p| p.dp_required <= 1));
        assert!(five.validate().is_ok());
    }

    #[test]
    fn scaled_cluster_identity() {
        let spec = ControllerSpec::opencontrail_3x();
        assert_eq!(spec.scaled_cluster(3), spec);
    }

    #[test]
    #[should_panic(expected = "2N+1")]
    fn scaled_cluster_rejects_even() {
        let _ = ControllerSpec::opencontrail_3x().scaled_cluster(4);
    }

    #[test]
    fn validation_rejects_duplicate_role() {
        let mut spec = ControllerSpec::opencontrail_3x();
        let copy = spec.roles[0].clone();
        spec.roles.push(copy);
        assert!(matches!(
            spec.validate(),
            Err(SpecError::DuplicateRole { .. })
        ));
    }

    #[test]
    fn validation_rejects_duplicate_process() {
        let mut spec = ControllerSpec::opencontrail_3x();
        let p = spec.roles[0].processes[0].clone();
        spec.roles[0].processes.push(p);
        assert!(matches!(
            spec.validate(),
            Err(SpecError::DuplicateProcess { .. })
        ));
    }

    #[test]
    fn validation_rejects_oversized_quorum() {
        let mut spec = ControllerSpec::opencontrail_3x();
        spec.roles[0].processes[0].cp_required = 4;
        assert!(matches!(
            spec.validate(),
            Err(SpecError::QuorumTooLarge { .. })
        ));
    }

    #[test]
    fn validation_rejects_inconsistent_group() {
        let mut spec = ControllerSpec::opencontrail_3x();
        // Make `dns` disagree with its group about the requirement.
        let control = spec.roles.iter_mut().find(|r| r.name == "Control").unwrap();
        let dns = control
            .processes
            .iter_mut()
            .find(|p| p.name == "dns")
            .unwrap();
        dns.dp_required = 0;
        assert!(matches!(
            spec.validate(),
            Err(SpecError::InconsistentGroup { .. })
        ));
    }

    #[test]
    fn validation_rejects_double_supervisor() {
        let mut spec = ControllerSpec::opencontrail_3x();
        spec.roles[0].processes[0].is_supervisor = true;
        assert!(matches!(
            spec.validate(),
            Err(SpecError::MultipleSupervisors { .. })
        ));
    }

    #[test]
    fn errors_display_meaningfully() {
        let e = SpecError::QuorumTooLarge {
            role: "X".into(),
            process: "p".into(),
            bound: 3,
            scope: RoleScope::Controller,
            field: "cp_required",
            required: 4,
        };
        assert!(e.to_string().contains("more than 3"));
    }

    #[test]
    fn json_round_trip() {
        let spec = ControllerSpec::opencontrail_3x();
        let json = sdnav_json::to_string_pretty(&spec);
        let back: ControllerSpec = sdnav_json::from_str(&json).unwrap();
        assert_eq!(spec, back);
        // Optional group fields stay omitted when absent.
        assert!(!json.contains("cp_group"));
        assert!(json.contains("dp_group"));
        // The reference model carries no rate overrides, and the field is
        // omitted rather than serialized as null.
        assert!(!json.contains("rates"));
    }

    #[test]
    fn json_round_trip_with_rates() {
        let mut spec = ControllerSpec::opencontrail_3x();
        spec.rates = Some(crate::SpecRates {
            process_mtbf: Some(crate::Quantity::with_unit(200_000.0, crate::Unit::Fit)),
            ..crate::SpecRates::default()
        });
        let json = sdnav_json::to_string_pretty(&spec);
        assert!(json.contains("\"rates\""));
        assert!(json.contains("\"fit\""));
        let back: ControllerSpec = sdnav_json::from_str(&json).unwrap();
        assert_eq!(spec, back);
    }
}
