//! `serve_mix`: a daemon with two workers, driven over loopback by two
//! closed-loop client connections from this process. One op is one
//! request.

use std::collections::HashMap;
use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

use xdata::catalog::DomainCatalog;
use xdata::client::{
    Client, EvaluateParams, GenerateParams, GradeBatchParams, Request, RequestBody, Response,
    WireOptions,
};
use xdata::core::kill::kill_report_cancel;
use xdata::core::{generate_warm, grade_batch_warm, CancelToken, GenOptions, WarmCache};
use xdata::engine::JoinStrategy;
use xdata::relalg::mutation::mutation_space;
use xdata::relalg::normalize;
use xdata::serve::{render_evaluate, Server, ServerConfig, ServerHandle};
use xdata::XData;

use crate::corpus::{serve_scripts, Method, ServeRequest, Temp, SERVE_SCHEMA};
use crate::layers::{add_totals, pass_metrics, PassMetrics};
use crate::pipeline::{count_kills, count_suite, mutation_options};
use crate::tracer::{merge, Span, Tracer};
use crate::{obs_counts, LoopStats, TraceOutcome, Workload};

const CLIENTS: usize = 2;
const WORKERS: usize = 2;
const WARM_TENANT: &str = "warm";
/// Length of one throughput and latency window.
const WINDOW_S: f64 = 0.25;

type Key = (Method, String);

fn key(r: &ServeRequest) -> Key {
    (r.method, r.query.clone())
}

/// One request as sent, with what it met and how long it took.
#[derive(Clone)]
struct Sent {
    script: usize,
    index: usize,
    tenant: String,
    done_ns: u64,
    rtt_ns: u64,
}

pub struct ServeWorkload {
    scripts: Vec<Vec<ServeRequest>>,
    pile: Vec<String>,
    server: ServerHandle,
    warm_outputs: Vec<(Key, Result<String, String>)>,
    expected: HashMap<Key, String>,
    bad: Vec<String>,
    cold: AtomicU64,
}

/// A client connection: the typed client, or a raw stream whose frames
/// the traced pass encodes and decodes itself.
enum Conn {
    Typed(Client),
    Raw(BufReader<TcpStream>, TcpStream),
}

fn body(r: &ServeRequest, pile: &[String]) -> RequestBody {
    let schema = SERVE_SCHEMA.to_string();
    let (query, options) = (r.query.clone(), WireOptions::default());
    match r.method {
        Method::Generate => RequestBody::Generate(GenerateParams {
            schema,
            query,
            options,
        }),
        Method::Evaluate => RequestBody::Evaluate(EvaluateParams {
            schema,
            query,
            options,
        }),
        Method::GradeBatch => RequestBody::GradeBatch(GradeBatchParams {
            schema,
            query,
            candidates: pile.to_vec(),
            options,
        }),
    }
}

impl ServeWorkload {
    pub fn setup(seed: u64) -> ServeWorkload {
        let (scripts, pile) = serve_scripts(seed, CLIENTS);
        let config = ServerConfig {
            workers: WORKERS,
            ..ServerConfig::default()
        };
        let server = Server::bind(config)
            .and_then(Server::spawn)
            .expect("bind and spawn the daemon on an ephemeral loopback port");
        // Warm-up: every distinct (method, query) once on the warm tenant.
        let mut distinct: Vec<&ServeRequest> = Vec::new();
        for r in scripts.iter().flatten() {
            if !distinct.iter().any(|d| key(d) == key(r)) {
                distinct.push(r);
            }
        }
        let mut client = Client::connect(server.addr())
            .expect("connect to the daemon")
            .with_tenant(WARM_TENANT);
        let warm_outputs = distinct
            .iter()
            .map(|r| {
                let req = client.build(body(r, &pile));
                (
                    key(r),
                    client
                        .request(&req)
                        .map(|p| p.output)
                        .map_err(|e| e.to_string()),
                )
            })
            .collect();
        drop(client);
        ServeWorkload {
            scripts,
            pile,
            server,
            warm_outputs,
            expected: HashMap::new(),
            bad: Vec::new(),
            cold: AtomicU64::new(0),
        }
    }

    fn addr(&self) -> SocketAddr {
        self.server.addr()
    }

    fn tenant(&self, temp: Temp) -> String {
        match temp {
            Temp::Warm | Temp::Metrics => WARM_TENANT.to_string(),
            Temp::Cold => format!("cold-{}", self.cold.fetch_add(1, Ordering::Relaxed)),
        }
    }

    fn request(&self, id: u64, r: &ServeRequest, tenant: &str) -> Request {
        let mut req = Request::new(id, body(r, &self.pile)).with_tenant(tenant);
        req.metrics = r.temp == Temp::Metrics;
        req
    }

    fn check(&self, r: &ServeRequest, output: &str) -> Result<(), String> {
        if let Some(e) = self.bad.first() {
            return Err(e.clone());
        }
        match self.expected.get(&key(r)) {
            Some(want) if want == output => Ok(()),
            _ => Err(format!(
                "{:?} `{}`: wire bytes differ from the in-process output",
                r.method, r.query
            )),
        }
    }

    /// The in-process output of the same request through the library API.
    fn in_process(&self, r: &ServeRequest) -> Result<String, String> {
        let (schema, _) = xdata::sql::parse_script(SERVE_SCHEMA).map_err(|e| e.to_string())?;
        let x = XData::new(schema);
        match r.method {
            Method::Generate => x.generate_for(&r.query).map(|run| run.suite.to_string()),
            Method::Evaluate => x
                .evaluate(&r.query, mutation_options())
                .map(|(run, space, rep)| render_evaluate(&run.query, &run.suite, &space, &rep)),
            Method::GradeBatch => x.grade_batch(&r.query, &self.pile).map(|rep| rep.render()),
        }
        .map_err(|e| e.to_string())
    }

    /// Both clients in closed loops over their scripts until `seconds`
    /// elapse. With `traced`, frames are encoded and decoded by hand so
    /// the client's encode and decode get spans of their own.
    fn drive(
        &self,
        seconds: f64,
        traced: bool,
        epoch: Instant,
    ) -> (LoopStats, Vec<Sent>, Vec<Span>) {
        let start_ns = epoch.elapsed().as_nanos() as u64;
        let results: Vec<(LoopStats, Vec<Sent>, Vec<Span>)> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..CLIENTS)
                .map(|c| scope.spawn(move || self.client_loop(c, seconds, traced, epoch)))
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("client thread"))
                .collect()
        });
        let mut stats = LoopStats::default();
        let (mut sent, mut spans) = (Vec::new(), Vec::new());
        for (s, r, sp) in results {
            stats.absorb(s);
            sent.extend(r);
            spans.push(sp);
        }
        sent.sort_by_key(|s| s.done_ns);
        // Windows of fixed length: both clients cycle through their
        // scripts several times per window, so the mix is stable.
        let mut windows: Vec<Vec<f64>> = vec![Vec::new(); (seconds / WINDOW_S) as usize];
        for s in &sent {
            let bin = ((s.done_ns - start_ns) as f64 / 1e9 / WINDOW_S) as usize;
            if let Some(w) = windows.get_mut(bin) {
                w.push(s.rtt_ns as f64 / 1e6);
            }
        }
        stats.rates = windows.iter().map(|w| w.len() as f64 / WINDOW_S).collect();
        stats.windows = windows;
        (stats, sent, merge(spans))
    }

    fn client_loop(
        &self,
        c: usize,
        seconds: f64,
        traced: bool,
        epoch: Instant,
    ) -> (LoopStats, Vec<Sent>, Vec<Span>) {
        let script = &self.scripts[c];
        let mut stats = LoopStats::default();
        let mut sent = Vec::new();
        let mut tracer = Tracer::new(epoch, c + 1);
        // One connection per client: the daemon serves a connection to its
        // end on one worker, so a second one would queue behind it.
        let mut conn = if traced {
            let stream = TcpStream::connect(self.addr()).expect("connect to the daemon");
            stream.set_nodelay(true).expect("set TCP_NODELAY");
            let reader = BufReader::new(stream.try_clone().expect("clone the stream"));
            Conn::Raw(reader, stream)
        } else {
            Conn::Typed(Client::connect(self.addr()).expect("connect to the daemon"))
        };
        let start = Instant::now();
        let mut n = 0;
        while start.elapsed().as_secs_f64() < seconds {
            let index = n % script.len();
            let r = &script[index];
            let tenant = self.tenant(r.temp);
            let req = self.request(n as u64 + 1, r, &tenant);
            let t0 = Instant::now();
            let output = match &mut conn {
                Conn::Raw(reader, writer) => tracer.span("op", |t| {
                    let mut line = t.span("client.encode", |_| req.encode());
                    line.push('\n');
                    writer
                        .write_all(line.as_bytes())
                        .map_err(|e| e.to_string())?;
                    let mut resp = String::new();
                    reader.read_line(&mut resp).map_err(|e| e.to_string())?;
                    let resp = t.span("client.decode", |_| {
                        Response::decode(resp.trim_end_matches('\n'))
                    })?;
                    resp.result
                        .map(|p| p.output)
                        .map_err(|e| format!("{}: {}", e.code, e.message))
                }),
                Conn::Typed(client) => client
                    .request(&req)
                    .map(|p| p.output)
                    .map_err(|e| e.to_string()),
            };
            let took = t0.elapsed();
            let done_ns = epoch.elapsed().as_nanos() as u64;
            sent.push(Sent {
                script: c,
                index,
                tenant,
                done_ns,
                rtt_ns: took.as_nanos() as u64,
            });
            stats.record(output.and_then(|o| self.check(r, &o)));
            n += 1;
        }
        stats.wall_s = start.elapsed().as_secs_f64();
        (stats, sent, tracer.into_spans())
    }

    /// Re-run the wire requests in completion order in-process, through
    /// the layer calls the daemon makes, against a warm cache of our own.
    /// Returns the compute time of each request.
    fn replay(
        &self,
        sent: &[Sent],
        t: &mut Tracer,
        totals: &mut PassMetrics,
        stats: &mut LoopStats,
    ) -> Vec<u64> {
        let (schema, _) = xdata::sql::parse_script(SERVE_SCHEMA).expect("schema script parses");
        let domains = DomainCatalog::defaults(&schema);
        let opts = GenOptions {
            jobs: 1,
            ..GenOptions::default()
        };
        let warm = WarmCache::new();
        let cancel = CancelToken::new();
        let mut compute = Vec::with_capacity(sent.len());
        for s in sent {
            let r = &self.scripts[s.script][s.index];
            let start = Instant::now();
            let output = t.span("replay", |t| -> Result<String, String> {
                if r.method == Method::GradeBatch {
                    let rep = t.span("core.grade_batch", |_| {
                        grade_batch_warm(
                            &r.query,
                            &self.pile,
                            &schema,
                            &domains,
                            &opts,
                            JoinStrategy::Hash,
                            &cancel,
                            &warm,
                            &s.tenant,
                        )
                    });
                    let rep = rep.map_err(|e| e.to_string())?;
                    return Ok(t.span("core.render", |_| rep.render()));
                }
                let ast = t
                    .span("sql.parse", |_| xdata::sql::parse_query(&r.query))
                    .map_err(|e| e.to_string())?;
                let q = t
                    .span("relalg.normalize", |_| normalize(&ast, &schema))
                    .map_err(|e| e.to_string())?;
                let suite = t.span("core.generate", |_| {
                    generate_warm(&q, &schema, &domains, &opts, &cancel, &warm, &s.tenant)
                });
                let suite = suite.map_err(|e| e.to_string())?;
                count_suite(totals, &suite);
                if r.method == Method::Generate {
                    return Ok(t.span("core.render", |_| suite.to_string()));
                }
                let space = t.span("relalg.mutation_space", |_| {
                    mutation_space(&q, mutation_options())
                });
                let report = t.span("engine.kill", |_| {
                    kill_report_cancel(&q, &space, &suite.data(), &schema, opts.jobs, &cancel)
                });
                let report = report.map_err(|e| e.to_string())?;
                count_kills(totals, &space, &report);
                Ok(t.span("core.render", |_| {
                    render_evaluate(&q, &suite, &space, &report)
                }))
            });
            compute.push(start.elapsed().as_nanos() as u64);
            stats.record(output.and_then(|o| self.check(r, &o)));
        }
        compute
    }
}

/// Median of one request class's latencies, 0 when too few to report.
fn p50_ms(mut v: Vec<f64>) -> f64 {
    crate::stats::sort(&mut v);
    crate::stats::percentile(&v, 0.5).unwrap_or(0.0)
}

impl Workload for ServeWorkload {
    fn jobs(&self) -> usize {
        WireOptions::default().jobs
    }

    fn verify(&mut self) -> Vec<String> {
        let mut errs = Vec::new();
        for (k, warm) in std::mem::take(&mut self.warm_outputs) {
            let probe = ServeRequest {
                method: k.0,
                query: k.1.clone(),
                temp: Temp::Warm,
            };
            match (warm, self.in_process(&probe)) {
                (Ok(wire), Ok(local)) if wire == local => {
                    self.expected.insert(k, local);
                }
                (Ok(_), Ok(_)) => errs.push(format!(
                    "{:?} `{}`: wire bytes differ from in-process",
                    k.0, k.1
                )),
                (Err(e), _) => errs.push(format!("{:?} `{}`: request failed: {e}", k.0, k.1)),
                (_, Err(e)) => {
                    errs.push(format!("{:?} `{}`: in-process run failed: {e}", k.0, k.1))
                }
            }
        }
        self.bad = errs.clone();
        errs
    }

    fn run(&mut self, seconds: f64, _between: &mut dyn FnMut()) -> LoopStats {
        self.drive(seconds, false, Instant::now()).0
    }

    fn trace(&mut self, seconds: f64) -> TraceOutcome {
        let epoch = Instant::now();
        // Untraced run: the class latencies and the overhead baseline.
        let (mut stats, sent, _) = self.drive(seconds * 0.25, false, epoch);
        let mut by_temp: HashMap<Temp, Vec<f64>> = HashMap::new();
        for s in &sent {
            by_temp
                .entry(self.scripts[s.script][s.index].temp)
                .or_default()
                .push(s.rtt_ns as f64 / 1e6);
        }
        let untraced_mean = sent.iter().map(|s| s.rtt_ns as f64).sum::<f64>() / sent.len() as f64;
        let class_p50 = [
            (
                "serve.cold_p50_ms",
                p50_ms(by_temp.remove(&Temp::Cold).unwrap_or_default()),
            ),
            (
                "serve.warm_p50_ms",
                p50_ms(by_temp.remove(&Temp::Warm).unwrap_or_default()),
            ),
            (
                "serve.metrics_p50_ms",
                p50_ms(by_temp.remove(&Temp::Metrics).unwrap_or_default()),
            ),
        ];

        let (mut passes, mut all_spans) = (Vec::new(), Vec::new());
        for _ in 0..3 {
            let (s, sent, wire_spans) = self.drive(seconds * 0.12, true, epoch);
            stats.absorb(s);
            let mut m = PassMetrics::new();
            let mut tracer = Tracer::new(epoch, 0);
            xdata::obs::install();
            xdata::obs::preseed();
            let compute = self.replay(&sent, &mut tracer, &mut m, &mut stats);
            let report = xdata::obs::take_report().expect("recorder installed");
            let spans = merge(vec![wire_spans, tracer.into_spans()]);
            let ops = sent.len();
            let mut pm = pass_metrics(&spans, ops);
            let overhead: Vec<f64> = sent
                .iter()
                .zip(&compute)
                .map(|(s, &c)| (s.rtt_ns as f64 - c as f64) / 1e6)
                .collect();
            pm.insert("serve.overhead_ms".into(), crate::stats::median(&overhead));
            let traced_mean = sent.iter().map(|s| s.rtt_ns as f64).sum::<f64>() / ops as f64;
            pm.insert(
                "obs.trace_overhead_ratio".into(),
                traced_mean / untraced_mean,
            );
            add_totals(&mut pm, m, ops);
            for (k, v) in class_p50 {
                pm.insert(k.into(), v);
            }
            obs_counts(&report, &mut pm, ops);
            passes.push(pm);
            all_spans.push(spans);
        }
        TraceOutcome {
            passes,
            spans: merge(all_spans),
            stats,
        }
    }

    fn finish(self: Box<Self>) {
        if let Err(e) = self.server.shutdown() {
            eprintln!("warning: daemon shutdown: {e}");
        }
    }
}
