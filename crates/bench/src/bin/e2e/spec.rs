//! The benchmark's fixed vocabulary: workload names, end-to-end metrics
//! with their regression bounds, and per-layer metrics. `BENCHMARK.json`
//! at the repository root lists exactly these (a unit test compares the
//! two), and `e2e compare` reads directions and bounds from here.

/// How long one run measures when `--seconds` is not given.
pub const DEFAULT_SECONDS: f64 = 16.0;

/// One workload: its final name and why it exists.
pub struct WorkloadSpec {
    pub name: &'static str,
    pub why: &'static str,
}

/// Which way a metric improves.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// One metric. `bound` is the share of the parent's median by which an
/// end-to-end metric may worsen before a change is refused; per-layer
/// metrics carry none.
pub struct MetricSpec {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    pub bound: Option<f64>,
}

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> MetricSpec {
    MetricSpec {
        name,
        unit,
        better,
        bound: Some(bound),
    }
}

const fn layer(name: &'static str, unit: &'static str, better: Better) -> MetricSpec {
    MetricSpec {
        name,
        unit,
        better,
        bound: None,
    }
}

/// The workloads `BENCHMARK.json` lists: the ones a change is held to.
pub const WORKLOADS: &[WorkloadSpec] = &[
    WorkloadSpec {
        name: "edge_steady",
        why: "64 B frames, all map-cache hits, no writes: pure per-packet cost of dataplane+wire+lisp+trie+policy",
    },
    WorkloadSpec {
        name: "edge_churn",
        why: "1400 B frames with handovers and rule deltas: table writes beside reads, plus copy cost at large frames",
    },
    WorkloadSpec {
        name: "ctrl_resolve",
        why: "Map-Requests as bytes against 1M endpoints: control-plane read path at a cache-busting size (Fig. 7)",
    },
    WorkloadSpec {
        name: "ctrl_churn",
        why: "move-registers as bytes at 100k endpoints with 4 subscribers: write path, Map-Notify, delta fan-out, sweep",
    },
    WorkloadSpec {
        name: "fabric_traffic",
        why: "host sends through Fabric over simnet: a packet's whole life, where core+simnet dominate the engine",
    },
    WorkloadSpec {
        name: "fabric_storm",
        why: "shard-storm chaos campaigns: control plane through simnet under loss, reboots, shedding and resync",
    },
];

/// Workloads the binary runs but `BENCHMARK.json` does not list: their
/// timings follow the machine too closely to hold a change to them.
/// `edge_mt` hands every burst across the box's two vCPUs and runs at
/// either 5.3 M or 2.3–3.3 M frames/s, whichever way the host's
/// scheduler leans that hour.
pub const UNGATED: &[WorkloadSpec] = &[WorkloadSpec {
    name: "edge_mt",
    why: "the edge_steady ingress stream through MtSwitch: the only workload where dataplane::mt does the work",
}];

use Better::{Higher, Lower};

/// End-to-end metrics, measured with tracing off. Every workload
/// reports every one of them.
pub const END_TO_END: &[MetricSpec] = &[
    e2e("setup_s", "s", Lower, 0.25),
    e2e("ops_per_s", "1/s", Higher, 0.25),
    e2e("batch_p50_us", "us", Lower, 0.25),
    e2e("batch_p99_us", "us", Lower, 0.25),
    e2e("peak_rss_mib", "MiB", Lower, 0.20),
];

/// Per-layer metrics, from the `--trace 1` run. A workload reports 0 for
/// a metric of a layer it does not exercise.
pub const PER_LAYER: &[MetricSpec] = &[
    layer("dataplane.load_ns_per_pkt", "ns", Lower),
    layer("dataplane.ingress_ns_per_pkt", "ns", Lower),
    layer("dataplane.egress_ns_per_pkt", "ns", Lower),
    layer("dataplane.punt_service_ns_per_pkt", "ns", Lower),
    layer("dataplane.punts_per_kpkt", "count", Lower),
    layer("dataplane.table_write_ns_per_op", "ns", Lower),
    layer("dataplane.encap_probe_ns_per_pkt", "ns", Lower),
    layer("dataplane.decap_probe_ns_per_pkt", "ns", Lower),
    layer("dataplane.unattributed_share", "ratio", Lower),
    layer("dataplane.mt_dispatch_ns_per_pkt", "ns", Lower),
    layer("dataplane.mt_publish_us", "us", Lower),
    layer("dataplane.default_routed_share", "ratio", Lower),
    layer("dataplane.policy_drop_share", "ratio", Lower),
    layer("dataplane.other_drop_share", "ratio", Lower),
    layer("dataplane.allocs_per_pkt", "count", Lower),
    layer("dataplane.fib_entries", "count", Lower),
    layer("dataplane.table_mib", "MiB", Lower),
    layer("wire.parse_probe_ns_per_pkt", "ns", Lower),
    layer("wire.emit_probe_ns_per_pkt", "ns", Lower),
    layer("wire.lisp_parse_ns_per_msg", "ns", Lower),
    layer("wire.lisp_emit_ns_per_msg", "ns", Lower),
    layer("trie.lpm_probe_ns_per_key", "ns", Lower),
    layer("trie.write_probe_ns_per_key", "ns", Lower),
    layer("trie.arena_mib", "MiB", Lower),
    layer("trie.stride_fill_share", "ratio", Higher),
    layer("lisp.cache_lookup_probe_ns_per_key", "ns", Lower),
    layer("lisp.cache_hit_share", "ratio", Higher),
    layer("lisp.cache_stale_share", "ratio", Lower),
    layer("lisp.cache_miss_share", "ratio", Lower),
    layer("lisp.cache_write_probe_ns_per_op", "ns", Lower),
    layer("lisp.cache_entries", "count", Lower),
    layer("policy.verdict_probe_ns_per_pkt", "ns", Lower),
    layer("policy.delta_install_us", "us", Lower),
    layer("policy.compile_ms", "ms", Lower),
    layer("policy.compiled_kib", "KiB", Lower),
    layer("ctrl.request_ns_per_msg", "ns", Lower),
    layer("ctrl.register_ns_per_msg", "ns", Lower),
    layer("ctrl.flush_ns_per_delta", "ns", Lower),
    layer("ctrl.deltas_per_move", "count", Lower),
    layer("ctrl.resyncs", "count", Lower),
    layer("ctrl.pubsub_peak_depth", "count", Lower),
    layer("ctrl.expire_ms_per_sweep", "ms", Lower),
    layer("ctrl.shed_share", "ratio", Lower),
    layer("ctrl.shard_imbalance", "ratio", Lower),
    layer("ctrl.db_mib", "MiB", Lower),
    layer("ctrl.allocs_per_msg", "count", Lower),
    layer("simnet.events_per_op", "count", Lower),
    layer("simnet.events_per_s", "1/s", Higher),
    layer("simnet.sim_s_per_wall_s", "ratio", Higher),
    layer("simnet.dispatch_probe_ns_per_event", "ns", Lower),
    layer("simnet.metrics_incr_probe_ns", "ns", Lower),
    layer("simnet.ingress_peak_depth", "count", Lower),
    layer("simnet.ingress_drops", "count", Lower),
    layer("core.onboard_wall_s", "s", Lower),
    layer("core.traffic_wall_s", "s", Lower),
    layer("core.drain_wall_s", "s", Lower),
    layer("core.us_per_send", "us", Lower),
    layer("core.switch_pkts", "count", Lower),
    layer("core.delivered_share", "ratio", Higher),
    layer("core.default_routed_share", "ratio", Lower),
    layer("core.first_packet_drops", "count", Lower),
    layer("core.allocs_per_send", "count", Lower),
    layer("core.retransmits", "count", Lower),
    layer("core.busy_backoffs", "count", Lower),
    layer("core.jittered_retries", "count", Lower),
    layer("core.smrs_sent", "count", Lower),
    layer("core.converge_sim_s", "sim_s", Lower),
    layer("workloads.gen_s", "s", Lower),
    layer("workloads.failed_share", "ratio", Lower),
    layer("trace.overhead_share", "ratio", Lower),
];

/// Looks a workload up by name.
pub fn workload(name: &str) -> Option<&'static WorkloadSpec> {
    all_workloads().find(|w| w.name == name)
}

/// Gated workloads first, then the ungated ones.
pub fn all_workloads() -> impl Iterator<Item = &'static WorkloadSpec> {
    WORKLOADS.iter().chain(UNGATED)
}
