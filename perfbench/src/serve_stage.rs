//! The interactive stage behind `serve_whatif`: one seeded closed-loop client
//! driving a resident `Engine` through `Engine::handle_line`, reads beside
//! what-if writes (an `eco` or `set_drive` plus the read that forces its cone
//! re-solve). Some edits repeat from a small pool and re-solve from the
//! memo; the rest are fresh and pay the engine.

use crate::measure::{median, percentile, timed, Digest, Meter, Report};
use crate::netsim_stage::{half_switching, Stimulus, RAMP};
use crate::schedule::Stage;
use crate::setup::{calculator, Plan, Size, BACKEND, DT, PO_LOAD};
use mcsm_cells::cell::CellKind;
use mcsm_core::sim::DriveWaveform;
use mcsm_net::{scale_free_dag, GateRef, NetRef, Netlist, ScaleFreeConfig};
use mcsm_netsim::{simulate_netlist, NetsimOptions};
use mcsm_num::json::JsonValue;
use mcsm_num::testrand::TestRng;
use mcsm_serve::{Engine, SessionConfig};
use mcsm_spice::waveform::Waveform;
use mcsm_sta::models::ModelLibrary;
use std::collections::HashMap;
use std::time::Instant;

/// Generator seed of the served topology; `--seed` picks the read traffic.
const TOPOLOGY_SEED: u64 = 13;
/// Seed of the edit pool and of the sequence of fresh edits.
const EDIT_SEED: u64 = 17;
// The traffic mix below (and the edit-kind split of `random_edit`) is an
// assumption chosen for a steady measurement. No recorded client traffic
// exists to take it from; see the README.

/// Share of client steps that are writes.
const WRITE_SHARE: f64 = 0.25;
/// Share of writes that repeat an edit of the pool; the rest are fresh.
const REPEAT_SHARE: f64 = 0.2;
/// Edits in the pool that repeating writes draw from.
const POOL: usize = 16;
/// Read methods and their cumulative draw probabilities.
const READS: [(&str, f64); 3] = [("arrival", 0.4), ("slew", 0.7), ("waveform", 1.0)];
/// Methods whose per-call latency is reported as `server.<method>_us_p50`.
pub const METHODS: [&str; 5] = ["arrival", "slew", "waveform", "eco", "set_drive"];

/// A primary-input stimulus in both of its forms: the request's `drive`
/// object and the waveform the server builds from it.
#[derive(Debug, Clone)]
struct Drive {
    spec: JsonValue,
    wave: DriveWaveform,
}

impl Drive {
    fn ramp(vdd: f64, falling: bool, t_start: f64) -> Self {
        let transition = RAMP;
        let (kind, wave) = if falling {
            (
                "fall",
                DriveWaveform::falling_ramp(vdd, t_start, transition),
            )
        } else {
            ("rise", DriveWaveform::rising_ramp(vdd, t_start, transition))
        };
        Drive {
            spec: object(vec![
                ("kind", JsonValue::String(kind.into())),
                ("t_start", JsonValue::Number(t_start)),
                ("transition", JsonValue::Number(transition)),
            ]),
            wave,
        }
    }

    fn dc(level: f64) -> Self {
        Drive {
            spec: object(vec![
                ("kind", JsonValue::String("dc".into())),
                ("level", JsonValue::Number(level)),
            ]),
            wave: DriveWaveform::dc(level),
        }
    }
}

/// One what-if edit of the pool.
#[derive(Debug, Clone)]
enum Edit {
    Load { net: NetRef, farads: f64 },
    Retype { gate: GateRef, kind: CellKind },
    SetDrive { net: NetRef, drive: Drive },
}

fn object(fields: Vec<(&str, JsonValue)>) -> JsonValue {
    JsonValue::Object(
        fields
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect(),
    )
}

fn request(method: &str, params: JsonValue) -> String {
    object(vec![
        ("id", JsonValue::Number(0.0)),
        ("method", JsonValue::String(method.into())),
        ("params", params),
    ])
    .to_string_compact()
}

fn net_param(netlist: &Netlist, net: NetRef) -> (&'static str, JsonValue) {
    ("net", JsonValue::String(netlist.net_name(net).into()))
}

impl Edit {
    fn method(&self) -> &'static str {
        match self {
            Edit::SetDrive { .. } => "set_drive",
            _ => "eco",
        }
    }

    fn line(&self, netlist: &Netlist) -> String {
        let params = match self {
            Edit::Load { net, farads } => object(vec![
                ("op", JsonValue::String("set_net_load".into())),
                net_param(netlist, *net),
                ("farads", JsonValue::Number(*farads)),
            ]),
            Edit::Retype { gate, kind } => object(vec![
                ("op", JsonValue::String("retype_gate".into())),
                ("gate", JsonValue::String(netlist.gate_name(*gate).into())),
                ("cell", JsonValue::String(kind.name().into())),
            ]),
            Edit::SetDrive { net, drive } => object(vec![
                net_param(netlist, *net),
                ("drive", drive.spec.clone()),
            ]),
        };
        request(self.method(), params)
    }

    /// Applies the edit to the benchmark's own copy of the circuit.
    fn apply(&self, netlist: &mut Netlist, drives: &mut HashMap<NetRef, DriveWaveform>) -> bool {
        match self {
            Edit::Load { net, farads } => netlist.set_net_load(*net, *farads).is_ok(),
            Edit::Retype { gate, kind } => netlist.retype_gate(*gate, *kind).is_ok(),
            Edit::SetDrive { net, drive } => {
                drives.insert(*net, drive.wave.clone());
                true
            }
        }
    }
}

/// The served circuit, its initial drives, the edit pool and the stream seed.
pub struct Circuit {
    netlist: Netlist,
    levels: usize,
    window: f64,
    vdd: f64,
    drives: Vec<(NetRef, Drive)>,
    /// Edits a share of the writes repeat ([`REPEAT_SHARE`]; the others are
    /// fresh), so some writes re-solve from the memo and most pay the
    /// engine.
    pool: Vec<Edit>,
    /// Gate-output nets: read targets and the committed waveforms checked
    /// at the end.
    outputs: Vec<NetRef>,
    two_input: Vec<GateRef>,
    stream_seed: u64,
    size: Size,
}

impl Circuit {
    /// Builds the topology (`net.build`), levelizes it (`net.levelize`) and
    /// draws drives and edit pool.
    pub fn build(plan: &Plan, vdd: f64) -> (Self, f64, f64) {
        let (gates, inputs, seed) = match plan.size {
            Size::Scaled => (120, 32, plan.seed),
            Size::Compact => (24, 8, Plan::FIXED_SEED),
            Size::Smallest => (12, 4, Plan::FIXED_SEED),
        };
        let config = ScaleFreeConfig {
            gates,
            inputs,
            seed: TOPOLOGY_SEED,
        };
        let (netlist, build_s) = timed("bench.net.scale_free_dag", || scale_free_dag(&config));
        let (schedule, levelize_s) = timed("bench.net.levels", || netlist.levels());
        let levels = schedule.level_count();

        // Drives and edits stay fixed: write costs span three decades, and
        // a few hundred seeded draws would move their percentiles by tens of
        // percent from seed to seed. The seed picks the read traffic and
        // where the writes fall in it.
        let drives = half_switching(&netlist, vdd, &mut TestRng::new(Plan::FIXED_SEED))
            .into_iter()
            .map(|(pi, stimulus)| {
                let drive = match stimulus {
                    Stimulus::Fall { t_start } => Drive::ramp(vdd, true, t_start),
                    Stimulus::Dc { level } => Drive::dc(level),
                };
                (pi, drive)
            })
            .collect();

        let outputs: Vec<NetRef> = netlist
            .net_refs()
            .filter(|&net| netlist.driver_of(net).is_some())
            .collect();
        let two_input: Vec<GateRef> = netlist
            .gate_refs()
            .filter(|&g| netlist.gate_kind(g).input_count() == 2)
            .collect();
        let mut circuit = Circuit {
            window: 2e-9 + 0.1e-9 * levels as f64,
            netlist,
            levels,
            vdd,
            drives,
            pool: Vec::new(),
            outputs,
            two_input,
            stream_seed: seed,
            size: plan.size,
        };
        let mut edits = TestRng::new(EDIT_SEED);
        circuit.pool = (0..POOL).map(|_| circuit.random_edit(&mut edits)).collect();
        (circuit, build_s, levelize_s)
    }

    /// A what-if edit with continuous values: a new load on a gate-output
    /// net, a NAND2/NOR2 swap or a new ramp on a primary input.
    fn random_edit(&self, rng: &mut TestRng) -> Edit {
        // Loads and ramps draw continuous values, so fresh ones miss the
        // memo; a retype's two states are soon both memoized. The mix keeps
        // misses the clear majority of writes, so the write median sits
        // inside the re-solve mode rather than on the cliff between the
        // re-solve and memo-hit modes.
        let draw = rng.unit();
        if draw < 0.5 || (draw < 0.7 && self.two_input.is_empty()) {
            Edit::Load {
                net: self.outputs[rng.index(self.outputs.len())],
                farads: rng.in_range(0.5e-15, 8e-15),
            }
        } else if draw < 0.7 {
            let gate = self.two_input[rng.index(self.two_input.len())];
            let kind = match self.netlist.gate_kind(gate) {
                CellKind::Nand2 => CellKind::Nor2,
                _ => CellKind::Nand2,
            };
            Edit::Retype { gate, kind }
        } else {
            let inputs = self.netlist.primary_inputs();
            let net = inputs[rng.index(inputs.len())];
            let drive = Drive::ramp(self.vdd, rng.flip(), 1e-9 + rng.in_range(0.0, 80e-12));
            Edit::SetDrive { net, drive }
        }
    }
}

/// A resident engine serving the circuit, plus the benchmark's mirror of
/// every edit the stream has applied.
pub struct Session {
    engine: Engine,
    circuit: Circuit,
    mirror: Netlist,
    mirror_drives: HashMap<NetRef, DriveWaveform>,
    threads: usize,
}

fn send(engine: &Engine, line: &str) -> (String, f64) {
    timed("bench.server.handle_line", || engine.handle_line(line))
}

fn answered(response: &str) -> bool {
    response.contains("\"result\"")
}

impl Session {
    /// Opens a session: a fresh `Engine` on a clone of the library, then
    /// `load_netlist`, one `set_drive` per input and the first full
    /// evaluation, all as request lines. Returns the session and the seconds
    /// it took.
    pub fn open(
        circuit: Circuit,
        library: &ModelLibrary,
        plan: &Plan,
    ) -> Result<(Self, f64), String> {
        let start = Instant::now();
        let config = SessionConfig {
            backend: BACKEND,
            window: circuit.window,
            dt: DT,
            threads: plan.threads,
            primary_output_load: PO_LOAD,
            ..SessionConfig::default()
        };
        let engine = Engine::new(mcsm_serve::Session::new(library.clone(), config));
        let mut lines = vec![request(
            "load_netlist",
            object(vec![
                ("netlist", circuit.netlist.to_json_value()),
                ("window", JsonValue::Number(circuit.window)),
                ("dt", JsonValue::Number(DT)),
            ]),
        )];
        for (pi, drive) in &circuit.drives {
            lines.push(request(
                "set_drive",
                object(vec![
                    net_param(&circuit.netlist, *pi),
                    ("drive", drive.spec.clone()),
                ]),
            ));
        }
        lines.push(request(
            "resim",
            object(vec![("full", JsonValue::Bool(true))]),
        ));
        for line in &lines {
            let (response, _) = send(&engine, line);
            if !answered(&response) {
                return Err(format!("session set-up request failed: {response}"));
            }
        }
        let session = Session {
            engine,
            mirror: circuit.netlist.clone(),
            mirror_drives: circuit
                .drives
                .iter()
                .map(|(pi, drive)| (*pi, drive.wave.clone()))
                .collect(),
            circuit,
            threads: plan.threads,
        };
        Ok((session, start.elapsed().as_secs_f64()))
    }

    /// A fresh session on the same circuit and drives.
    pub fn reopen(self, library: &ModelLibrary, plan: &Plan) -> Result<Self, String> {
        Session::open(self.circuit, library, plan).map(|(session, _)| session)
    }

    pub fn describe(&self) -> JsonValue {
        let c = &self.circuit;
        JsonValue::Object(vec![
            ("size".into(), c.size.json()),
            ("circuit".into(), JsonValue::String(c.netlist.name().into())),
            (
                "gates".into(),
                JsonValue::Number(c.netlist.gate_count() as f64),
            ),
            ("levels".into(), JsonValue::Number(c.levels as f64)),
            ("window_s".into(), JsonValue::Number(c.window)),
            ("edit_pool".into(), JsonValue::Number(c.pool.len() as f64)),
            ("write_share".into(), JsonValue::Number(WRITE_SHARE)),
            ("repeat_share".into(), JsonValue::Number(REPEAT_SHARE)),
            ("mix".into(), JsonValue::String("assumed".into())),
            ("clients".into(), JsonValue::Number(1.0)),
        ])
    }

    /// The committed waveform of `net` as served, or `None` on an error.
    fn served_waveform(&self, net: NetRef) -> Option<Waveform> {
        let line = request(
            "waveform",
            object(vec![net_param(&self.circuit.netlist, net)]),
        );
        let doc = JsonValue::parse(&send(&self.engine, &line).0).ok()?;
        let result = doc.get("result")?;
        let times = result.get("times_s")?.to_f64_vec().ok()?;
        let values = result.get("values_v")?.to_f64_vec().ok()?;
        Waveform::new(times, values).ok()
    }
}

/// Requests per unit of the client's stream.
fn batch(size: Size) -> usize {
    match size {
        Size::Scaled | Size::Compact => 50,
        Size::Smallest => 10,
    }
}

/// The smallest read and write counts of a measured stream: enough that the
/// reported tails (read p99, write p90) keep at least ten samples beyond
/// them.
fn sample_floor(size: Size) -> (usize, usize) {
    match size {
        Size::Scaled | Size::Compact => (1000, 100),
        Size::Smallest => (20, 2),
    }
}

/// The closed-loop client as a sequence of units of [`batch`] requests.
pub struct Runner<'a> {
    session: &'a mut Session,
    library: &'a ModelLibrary,
    /// Read traffic and write positions (seeded).
    rng: TestRng,
    /// The edit script (fixed).
    edits: TestRng,
    units: usize,
    reads_ms: Vec<f64>,
    writes_ms: Vec<f64>,
    per_method_us: HashMap<&'static str, Vec<f64>>,
    response_bytes: Vec<f64>,
    failed: bool,
    pub meter: Meter,
    report: Report,
}

impl<'a> Runner<'a> {
    pub fn new(session: &'a mut Session, library: &'a ModelLibrary) -> Self {
        let rng = TestRng::new(session.circuit.stream_seed);
        Runner {
            session,
            library,
            rng,
            edits: TestRng::new(EDIT_SEED + 1),
            units: 0,
            reads_ms: Vec::new(),
            writes_ms: Vec::new(),
            per_method_us: HashMap::new(),
            response_bytes: Vec::new(),
            failed: false,
            meter: Meter::default(),
            report: Report::default(),
        }
    }

    /// One request, recorded under its method; returns its seconds.
    fn exchange(&mut self, method: &'static str, line: &str) -> f64 {
        let (response, secs) = send(&self.session.engine, line);
        self.per_method_us
            .entry(method)
            .or_default()
            .push(secs * 1e6);
        self.response_bytes.push(response.len() as f64);
        if answered(&response) {
            self.report.ops(1);
        } else {
            self.failed = true;
            self.report.error(format!("{method} failed: {response}"));
        }
        secs
    }

    /// One client step: a read, or a write (an edit plus the read that
    /// forces its cone re-solve).
    fn request(&mut self) {
        let circuit = &self.session.circuit;
        let target = circuit.outputs[self.rng.index(circuit.outputs.len())];
        let net = net_param(&circuit.netlist, target);
        if self.rng.unit() < WRITE_SHARE {
            let edit = if self.edits.unit() < REPEAT_SHARE {
                circuit.pool[self.edits.index(circuit.pool.len())].clone()
            } else {
                circuit.random_edit(&mut self.edits)
            };
            let line = edit.line(&circuit.netlist);
            let forcing = request("arrival", object(vec![net]));
            let secs = self.exchange(edit.method(), &line) + self.exchange("arrival", &forcing);
            self.writes_ms.push(secs * 1e3);
            let session = &mut *self.session;
            let applied = edit.apply(&mut session.mirror, &mut session.mirror_drives);
            self.report
                .check(applied, || format!("mirror could not apply {edit:?}"));
        } else {
            let draw = self.rng.unit();
            let method = READS
                .iter()
                .find(|(_, p)| draw < *p)
                .map_or("waveform", |m| m.0);
            let params = if method == "slew" {
                object(vec![net, ("rising", JsonValue::Bool(self.rng.flip()))])
            } else {
                object(vec![net])
            };
            // A read changes nothing, so it is sent twice back to back and
            // timed by the faster answer: the read tail then shows the
            // server's slow reads, not a stall of the shared host.
            let line = request(method, params);
            let secs = self
                .exchange(method, &line)
                .min(self.exchange(method, &line));
            self.reads_ms.push(secs * 1e3);
        }
    }

    /// Checks the committed waveforms against a from-scratch
    /// `simulate_netlist` of the edited netlist and reports the stage's
    /// metrics.
    pub fn finish(mut self) -> (Report, Meter) {
        let session = &*self.session;
        let options = NetsimOptions::new(
            calculator(self.library.vdd(), session.circuit.window),
            PO_LOAD,
        )
        .with_threads(session.threads);
        let (fresh, _) = timed("bench.netsim.simulate_netlist", || {
            simulate_netlist(
                &session.mirror,
                self.library,
                &session.mirror_drives,
                &options,
            )
        });
        let report = &mut self.report;
        match fresh {
            Ok(fresh) => {
                let outputs = &session.circuit.outputs;
                let served: Vec<Option<Waveform>> = outputs
                    .iter()
                    .map(|&net| session.served_waveform(net))
                    .collect();
                let same = Digest::of(served.iter().map(Option::as_ref))
                    == Digest::of(outputs.iter().map(|&net| fresh.waveform(net)));
                report.check(same, || {
                    "serve: committed waveforms differ from a from-scratch simulate_netlist".into()
                });
            }
            Err(e) => report.error(format!("from-scratch simulate_netlist failed: {e}")),
        }

        report.samples.push(("serve.reads", self.reads_ms.len()));
        report.samples.push(("serve.writes", self.writes_ms.len()));
        let requests = self.response_bytes.len() as f64;
        report.e2e("read_ms_p50", median(&self.reads_ms), "ms");
        report.e2e("read_ms_p99", percentile(&self.reads_ms, 99.0), "ms");
        report.e2e("write_ms_p50", median(&self.writes_ms), "ms");
        report.e2e("write_ms_p90", percentile(&self.writes_ms, 90.0), "ms");
        report.e2e("requests_per_s", requests / self.meter.seconds(), "req/s");
        for method in METHODS {
            let samples = self
                .per_method_us
                .get(method)
                .map_or(&[][..], Vec::as_slice);
            report.layer(&format!("server.{method}_us_p50"), median(samples), "us");
        }
        report.layer(
            "server.response_bytes_p50",
            median(&self.response_bytes),
            "bytes",
        );
        let writes = self.writes_ms.len().max(1) as f64;
        let meter = &self.meter;
        report.layer(
            "server.cone_gates_per_write",
            (meter.delta("netsim.gates_simulated") + meter.delta("netsim.gates_skipped")) / writes,
            "gates",
        );
        report.layer(
            "netsim.gates_reused",
            meter.delta("netsim.gates_reused") / writes,
            "gates",
        );
        (self.report, self.meter)
    }
}

impl Stage for Runner<'_> {
    fn units(&self) -> usize {
        self.units
    }

    fn target(&self) -> usize {
        let size = self.session.circuit.size;
        let (min_reads, min_writes) = sample_floor(size);
        let floors_met = self.reads_ms.len() >= min_reads && self.writes_ms.len() >= min_writes;
        let units = match size {
            Size::Scaled | Size::Compact => 24,
            Size::Smallest => 3,
        };
        if floors_met {
            units
        } else {
            units.max(self.units + 1)
        }
    }

    fn timed(&self) -> bool {
        self.session.circuit.size == Size::Scaled
    }

    fn failed(&self) -> bool {
        self.failed
    }

    fn step(&mut self) {
        let mut meter = std::mem::take(&mut self.meter);
        meter.unit(|| {
            // A served session always records metrics (`Session::new` arms
            // them), so the client is timed with them armed even when the
            // batch stages around it run disarmed.
            let armed = mcsm_obs::metrics_enabled();
            mcsm_obs::arm_metrics();
            for _ in 0..batch(self.session.circuit.size) {
                self.request();
            }
            mcsm_obs::set_metrics(armed);
        });
        self.meter = meter;
        self.units += 1;
    }
}
