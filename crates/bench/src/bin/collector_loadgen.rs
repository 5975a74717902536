//! Load generator for the collection daemon: replays honest +
//! attack-crafted report streams (via the `Attack` trait) against a
//! collector, at a configurable rate, and records throughput + peak RSS
//! in `BENCH_loadgen.json`.
//!
//! ```text
//! collector_loadgen [--channel degree-vector|adjacency]
//!                   [--users N]      population per round
//!                   [--groups K]     degree-vector groups (default 8)
//!                   [--rounds R]     simultaneous rounds (default 1)
//!                   [--sequential]   replay --rounds back-to-back instead
//!                   [--attack mga|rva|rna|none]   crafted tail (default mga)
//!                   [--beta F]       fake-user fraction (default 0.01)
//!                   [--rate R]       reports/sec cap per round (default unlimited)
//!                   [--connections C]  uploader sessions per round (default 1)
//!                   [--addr HOST:PORT]  external daemon (default: spawn one)
//!                   [--shards S]     shards of the spawned daemon (default 8)
//!                   [--seed S]       stream seed (default 7)
//!                   [--watch]        live stats table (STATS scrape every 250ms)
//!                   [--dump-metrics] Prometheus-style text dump after the run
//! ```
//!
//! Defaults replay the headline workload: one degree-vector round of 2²⁰
//! (≈1.05M) reports — the regime where the daemon's aggregate stays
//! `O(shards·groups)` no matter the population. `--rounds R` opens `R`
//! rounds **simultaneously** — one tenant per round, every round's
//! uploaders racing at once, so the daemon multiplexes `R` live
//! aggregates; the recorded reports/s is the aggregate across rounds
//! (`--sequential` restores the old back-to-back replay). `--connections
//! C` drives each round through `C` concurrent uploader sessions
//! (disjoint id slices, `SYNC` barriers, one coordinator closing the
//! round) — the aggregate-ingest workload of the concurrent session
//! plane. Adjacency rounds are bounded by the daemon's population cap
//! (the dense aggregate is `O(N²/8)` bytes; see DESIGN.md).
//!
//! `--watch` opens one extra session that scrapes the daemon's `STATS`
//! frame every 250ms and prints a live table — folded reports, ingest
//! rate, worker-queue depth, active sessions, admission refusals, stall
//! reaps — while the uploaders stream. `--dump-metrics` prints the full
//! registry as Prometheus-style text after the last round. Either way
//! the final summary and JSON record the stall-reap and session-cap
//! refusal counters scraped after the run.

use ldp_collector::{CollectorClient, CollectorError};
use ldp_protocols::wire;
use poison_bench::collector::{
    folded_total, peak_rss_bytes, run_adjacency_round, run_adjacency_round_concurrent,
    run_degree_vector_round, run_degree_vector_round_concurrent, samples_from_wire,
    shutdown_daemon, spawn_daemon, stat_counter, stat_gauge, LoadAttack, ThroughputResult,
};
use std::net::{SocketAddr, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

struct Args {
    channel: String,
    users: usize,
    groups: usize,
    rounds: u64,
    sequential: bool,
    attack: LoadAttack,
    beta: f64,
    rate: Option<u64>,
    connections: usize,
    addr: Option<String>,
    shards: usize,
    seed: u64,
    watch: bool,
    dump_metrics: bool,
}

fn parse_args() -> Args {
    let mut args = Args {
        channel: "degree-vector".into(),
        users: 1 << 20,
        groups: 8,
        rounds: 1,
        sequential: false,
        attack: LoadAttack::Mga,
        beta: 0.01,
        rate: None,
        connections: 1,
        addr: None,
        shards: 8,
        seed: 7,
        watch: false,
        dump_metrics: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = |name: &str| {
            it.next()
                .unwrap_or_else(|| die(&format!("{name} needs a value")))
        };
        match flag.as_str() {
            "--channel" => args.channel = value("--channel"),
            "--users" => args.users = parse(&value("--users"), "--users"),
            "--groups" => args.groups = parse(&value("--groups"), "--groups"),
            "--rounds" => args.rounds = parse(&value("--rounds"), "--rounds"),
            "--sequential" => args.sequential = true,
            "--attack" => {
                let v = value("--attack");
                args.attack = LoadAttack::from_name(&v)
                    .unwrap_or_else(|| die(&format!("unknown attack {v}")));
            }
            "--beta" => args.beta = parse(&value("--beta"), "--beta"),
            "--rate" => args.rate = Some(parse(&value("--rate"), "--rate")),
            "--connections" => args.connections = parse(&value("--connections"), "--connections"),
            "--addr" => args.addr = Some(value("--addr")),
            "--shards" => args.shards = parse(&value("--shards"), "--shards"),
            "--seed" => args.seed = parse(&value("--seed"), "--seed"),
            "--watch" => args.watch = true,
            "--dump-metrics" => args.dump_metrics = true,
            other => die(&format!("unknown flag {other}")),
        }
    }
    if args.channel != "degree-vector" && args.channel != "adjacency" {
        die(&format!("unknown channel {}", args.channel));
    }
    if args.connections == 0 {
        die("--connections must be positive");
    }
    args
}

fn parse<T: std::str::FromStr>(s: &str, flag: &str) -> T {
    s.parse()
        .unwrap_or_else(|_| die(&format!("bad value {s} for {flag}")))
}

fn die(msg: &str) -> ! {
    eprintln!("collector_loadgen: {msg}");
    std::process::exit(2);
}

fn main() {
    let args = parse_args();
    let spawned = if args.addr.is_none() {
        Some(spawn_daemon(args.shards).expect("spawn loopback daemon"))
    } else {
        None
    };
    let addr = match (&args.addr, &spawned) {
        (Some(addr), _) => addr.clone(),
        (None, Some((addr, _))) => addr.to_string(),
        _ => unreachable!(),
    };
    let sock_addr: SocketAddr = addr
        .to_socket_addrs()
        .ok()
        .and_then(|mut addrs| addrs.next())
        .unwrap_or_else(|| die(&format!("cannot resolve {addr}")));

    // --watch: one extra session scraping the registry every 250ms while
    // the uploaders stream. Best-effort — a daemon with its registry
    // disabled just shows zeros.
    let watching = Arc::new(AtomicBool::new(true));
    let watcher = args.watch.then(|| {
        let watching = Arc::clone(&watching);
        std::thread::spawn(move || {
            let Ok(mut scraper) = CollectorClient::connect(sock_addr) else {
                eprintln!("watch: cannot connect a scrape session");
                return;
            };
            let started = Instant::now();
            let mut last_folded = 0u64;
            let mut last_at = 0.0f64;
            eprintln!(
                "{:>8}  {:>12}  {:>12}  {:>6}  {:>8}  {:>8}  {:>6}",
                "t(s)", "folded", "reports/s", "queue", "sessions", "refused", "reaps"
            );
            while watching.load(Ordering::Relaxed) {
                std::thread::sleep(Duration::from_millis(250));
                let Ok(entries) = scraper.stats() else {
                    eprintln!("watch: scrape session lost");
                    return;
                };
                let now = started.elapsed().as_secs_f64();
                let folded = folded_total(&entries);
                let rate = folded.saturating_sub(last_folded) as f64 / (now - last_at);
                eprintln!(
                    "{:>8.1}  {:>12}  {:>12.0}  {:>6}  {:>8}  {:>8}  {:>6}",
                    now,
                    folded,
                    rate,
                    stat_gauge(&entries, "worker_queue_depth"),
                    stat_gauge(&entries, "sessions_active"),
                    stat_counter(&entries, "sessions_refused_cap"),
                    stat_counter(&entries, "stall_reaps"),
                );
                last_folded = folded;
                last_at = now;
            }
        })
    });

    // One round's replay; `round` doubles as the tenant so simultaneous
    // rounds never contend on one tenant's quota.
    let replay = |round: u64| -> Result<ThroughputResult, CollectorError> {
        match (args.channel.as_str(), args.connections) {
            ("degree-vector", 1) => {
                let mut client = CollectorClient::connect(sock_addr)?.with_tenant(round);
                run_degree_vector_round(
                    &mut client,
                    round + 1,
                    args.users,
                    args.groups,
                    args.attack,
                    args.beta,
                    args.rate,
                    args.seed + round,
                )
            }
            ("degree-vector", c) => run_degree_vector_round_concurrent(
                sock_addr,
                round + 1,
                args.users,
                args.groups,
                args.attack,
                args.beta,
                args.rate,
                c,
                args.seed + round,
            ),
            ("adjacency", 1) => {
                let mut client = CollectorClient::connect(sock_addr)?.with_tenant(round);
                run_adjacency_round(
                    &mut client,
                    round + 1,
                    args.users,
                    args.attack,
                    args.beta,
                    args.rate,
                    args.seed + round,
                )
            }
            ("adjacency", c) => run_adjacency_round_concurrent(
                sock_addr,
                round + 1,
                args.users,
                args.attack,
                args.beta,
                c,
                args.seed + round,
            )
            .map(|(result, _, _, _)| result),
            _ => unreachable!("channel validated in parse_args"),
        }
    };

    let started = Instant::now();
    let results: Vec<ThroughputResult> = if args.sequential || args.rounds == 1 {
        (0..args.rounds)
            .map(|round| {
                let result = replay(round).expect("round replay");
                eprintln!(
                    "round {}: {} reports ({} crafted) over {} connection(s) in {:.3}s = {:.0} reports/s",
                    round + 1,
                    result.reports,
                    result.crafted,
                    args.connections,
                    result.wall.as_secs_f64(),
                    result.reports_per_sec
                );
                result
            })
            .collect()
    } else {
        // Simultaneous rounds: every round's uploaders race at once and
        // the daemon multiplexes R live aggregates.
        std::thread::scope(|scope| {
            let handles: Vec<_> = (0..args.rounds)
                .map(|round| {
                    let replay = &replay;
                    scope.spawn(move || (round, replay(round).expect("round replay")))
                })
                .collect();
            handles
                .into_iter()
                .map(|h| {
                    let (round, result) = h.join().expect("round thread");
                    eprintln!(
                        "round {} (simultaneous): {} reports ({} crafted) over {} connection(s) \
                         in {:.3}s = {:.0} reports/s",
                        round + 1,
                        result.reports,
                        result.crafted,
                        args.connections,
                        result.wall.as_secs_f64(),
                        result.reports_per_sec
                    );
                    result
                })
                .collect()
        })
    };
    let simultaneous = !(args.sequential || args.rounds == 1);
    watching.store(false, Ordering::Relaxed);
    if let Some(watcher) = watcher {
        let _ = watcher.join();
    }

    // Final registry scrape before the spawned daemon goes away: the
    // stall-reap and admission-refusal counters for the summary, plus
    // the optional full text dump.
    let final_scrape: Option<Vec<wire::StatsEntry>> = CollectorClient::connect(sock_addr)
        .ok()
        .and_then(|mut scraper| scraper.stats().ok());
    let (stall_reaps, refusals) = final_scrape.as_deref().map_or((0, 0), |entries| {
        (
            stat_counter(entries, "stall_reaps"),
            stat_counter(entries, "sessions_refused_cap"),
        )
    });
    if args.dump_metrics {
        match &final_scrape {
            Some(entries) => print!("{}", ldp_obs::render_samples(&samples_from_wire(entries))),
            None => eprintln!("dump-metrics: no scrape (daemon unreachable)"),
        }
    }
    if let Some((addr, handle)) = spawned {
        shutdown_daemon(addr, handle);
    }

    let reports: u64 = results.iter().map(|r| r.reports).sum();
    let crafted: u64 = results.iter().map(|r| r.crafted).sum();
    // Sequential rounds sum their walls (excluding setup between them);
    // simultaneous rounds share one wall clock.
    let wall: f64 = if simultaneous {
        started.elapsed().as_secs_f64()
    } else {
        results.iter().map(|r| r.wall.as_secs_f64()).sum()
    };
    eprintln!(
        "aggregate: {} rounds ({}) = {:.0} reports/s",
        args.rounds,
        if simultaneous {
            "simultaneous"
        } else {
            "sequential"
        },
        reports as f64 / wall,
    );
    eprintln!("observability: {stall_reaps} stall reap(s), {refusals} session-cap refusal(s)");
    let json = format!(
        "{{\n  \"bench\": \"collector_loadgen\",\n  \"channel\": \"{}\",\n  \
         \"users_per_round\": {},\n  \"rounds\": {},\n  \"simultaneous\": {},\n  \
         \"attack\": \"{:?}\",\n  \"connections\": {},\n  \
         \"reports\": {},\n  \"crafted_reports\": {},\n  \"wall_s\": {:.3},\n  \
         \"reports_per_sec\": {:.0},\n  \"rate_cap\": {},\n  \
         \"stall_reaps\": {},\n  \"session_cap_refusals\": {},\n  \"peak_rss_bytes\": {}\n}}\n",
        args.channel,
        args.users,
        args.rounds,
        simultaneous,
        args.attack,
        args.connections,
        reports,
        crafted,
        wall,
        reports as f64 / wall,
        args.rate.map_or("null".into(), |r| r.to_string()),
        stall_reaps,
        refusals,
        peak_rss_bytes(),
    );
    std::fs::write("BENCH_loadgen.json", &json).expect("write BENCH_loadgen.json");
    print!("{json}");
}
