// Workload `paper`: the paper's measurement campaign, in process, at the
// Paper preset (~2.9k ASes, 11k probes), over several worlds.
//
// Per world: Lab::create (set-up), then the timed campaign —
//   add_deployment x4 (Imperva-6, Imperva-NS, Edgio-3, Edgio-4);
//   compare_regional_global(Imperva-6, Imperva-NS) + classify_reduction_causes;
//   tangled::run_study;
//   batch sweep: dns_lookup_all (Ldns, Adns) per deployment, ping_all and
//     traceroute_all per regional address;
//   scalar loop (Table 6): dns_lookup -> ping per probe for every hostname of
//     the Imperva-6, Edgio-3 and Edgio-4 hostname sets.
// Every answer is folded into a per-world digest. World seeds derive from
// the workload seed; the run cycles over kWorlds worlds until its time is
// up, so every world is measured several times and must digest identically
// each time.
//
// The gated wall_s is the campaign time, less the CPU time the host took
// away, scaled by a memory probe (see probe.hpp); the raw campaign time is
// the paper.wall_s figure.
#include <optional>
#include <thread>

#include "bench.hpp"
#include "probe.hpp"
#include "ranycast/cdn/catalog.hpp"
#include "ranycast/exec/pool.hpp"
#include "ranycast/lab/comparison.hpp"
#include "ranycast/lab/lab.hpp"
#include "ranycast/tangled/study.hpp"
#include "trace.hpp"

namespace perfbench {

using namespace ranycast;

namespace {

constexpr std::size_t kWorlds = 8;
constexpr std::size_t kQuickWorlds = 2;

lab::LabConfig world_config(const Options& opt, std::size_t world) {
  lab::LabConfig cfg;
  if (opt.quick) {
    cfg.world.stub_count = 300;
    cfg.census.total_probes = 800;
  }
  const std::uint64_t s = mix(opt.seed, world);
  cfg.seed = s;
  cfg.world.seed = mix(s, 1);
  cfg.census.seed = mix(s, 2);
  return cfg;
}

void fold(Digest& d, const lab::Lab::DnsAnswer& a) {
  d.u64(a.region);
  d.u64(a.address.bits());
  d.u64(a.degraded ? 1 : 0);
}

void fold(Digest& d, const std::optional<Rtt>& rtt) {
  d.u64(rtt ? 1 : 0);
  if (rtt) d.f64(rtt->ms);
}

void fold(Digest& d, const std::optional<bgp::TracerouteResult>& tr) {
  d.u64(tr ? 1 : 0);
  if (!tr) return;
  d.u64(tr->destination.bits());
  d.f64(tr->rtt.ms);
  d.u64(tr->phop_valid ? 1 : 0);
  d.u64(tr->hops.size());
  for (const bgp::Hop& h : tr->hops) {
    d.u64(h.ip.bits());
    d.u64(value(h.owner));
    d.u64(value(h.city));
    d.f64(h.rtt.ms);
  }
}

/// Per-hostname salt (stable across compilers, unlike std::hash).
std::uint64_t salt_of(const std::string& hostname) {
  Digest d;
  d.str(hostname);
  return d.value();
}

/// What one world's campaign produced.
struct WorldRun {
  double setup_s{0.0};
  double campaign_s{0.0};
  double stolen_s{0.0};  ///< host_stolen_s() over the campaign
  std::uint64_t digest{0};
  std::uint64_t calls{0};
  std::uint64_t threw{0};
  std::uint64_t scalar_mismatches{0};
  double sweep_busy_share{0.0};
  double campaign_busy_share{0.0};
};

/// Counters kept only by traced worlds (per-call timings and probe counts
/// behind the per-probe batch figures).
struct TracedCalls {
  LogHistogram dns_lookup, ping;
  double dns_all_probes{0}, ping_all_probes{0}, traceroute_all_probes{0};
};

/// Invokes one public call; a throw is counted as a failed call, not
/// propagated (the campaign keeps going).
template <typename F>
void call(WorldRun& run, F&& fn) {
  ++run.calls;
  try {
    fn();
  } catch (const std::exception&) {
    ++run.threw;
  }
}

WorldRun run_world(const Options& opt, std::size_t world, bool traced, TracedCalls& tc) {
  WorldRun out;
  RequestScope request(world + 1);
  Span root("bench.world");
  const lab::LabConfig cfg = world_config(opt, world);

  const std::uint64_t setup_start = now_ns();
  auto laboratory = [&] {
    Span span("api.lab.create");
    return lab::Lab::create(cfg);
  }();
  out.setup_s = seconds_between(setup_start, now_ns());

  Digest digest;
  const PoolMark campaign_mark = PoolMark::now();
  const std::uint64_t campaign_start = campaign_mark.at_ns;
  const double stolen_start = host_stolen_s();
  {
    Span campaign("bench.campaign");
    const lab::DeploymentHandle* im6 = nullptr;
    const lab::DeploymentHandle* ins = nullptr;
    const lab::DeploymentHandle* e3 = nullptr;
    const lab::DeploymentHandle* e4 = nullptr;
    auto deploy = [&](const lab::DeploymentHandle*& slot, const cdn::DeploymentSpec& spec) {
      call(out, [&] {
        Span span("api.lab.add_deployment");
        slot = &laboratory.add_deployment(spec);
      });
    };
    deploy(im6, cdn::catalog::imperva6());
    deploy(ins, cdn::catalog::imperva_ns());
    deploy(e3, cdn::catalog::edgio3());
    deploy(e4, cdn::catalog::edgio4());

    if (im6 != nullptr && ins != nullptr) {
      std::optional<lab::ComparisonResult> cmp;
      call(out, [&] {
        Span span("api.lab.compare_regional_global");
        cmp = lab::compare_regional_global(laboratory, *im6, *ins);
      });
      if (cmp) {
        digest.u64(cmp->groups_total);
        digest.u64(cmp->groups_retained);
        for (const lab::PairedGroup& g : cmp->groups) {
          digest.u64(value(g.city));
          digest.u64(value(g.asn));
          digest.f64(g.regional_ms);
          digest.f64(g.global_ms);
          digest.u64(value(g.regional_site));
          digest.u64(value(g.global_site));
          digest.u64(static_cast<std::uint64_t>(g.cause));
        }
        call(out, [&] {
          Span span("api.lab.classify_reduction_causes");
          const lab::CauseBreakdown causes = lab::classify_reduction_causes(*cmp);
          digest.u64(causes.reduced_groups);
          digest.u64(causes.as_relationship);
          digest.u64(causes.peering_type);
          digest.u64(causes.unknown);
        });
      }
    }

    call(out, [&] {
      Span span("api.tangled.run_study");
      const tangled::TangledStudy study = tangled::run_study(laboratory);
      digest.u64(static_cast<std::uint64_t>(study.reopt.k));
      for (const int r : study.reopt.site_region) digest.u64(static_cast<std::uint64_t>(r));
      for (const tangled::ProbeStudyResult& r : study.results) {
        digest.u64(value(r.probe->id));
        digest.f64(r.global_ms);
        digest.f64(r.direct_ms);
        digest.f64(r.route53_ms);
      }
    });

    const auto probes = laboratory.census().retained();
    const std::span<const atlas::Probe* const> probe_span(probes);
    const double n_probes = static_cast<double>(probes.size());

    // ---- batch sweep ----
    std::vector<std::vector<lab::Lab::DnsAnswer>> ldns_answers(3);
    {
      Span sweep("bench.sweep");
      const PoolMark sweep_mark = PoolMark::now();
      const lab::DeploymentHandle* deployments[] = {im6, e3, e4, ins};
      for (std::size_t k = 0; k < std::size(deployments); ++k) {
        const lab::DeploymentHandle* h = deployments[k];
        if (h == nullptr) continue;
        for (const dns::QueryMode mode : {dns::QueryMode::Ldns, dns::QueryMode::Adns}) {
          call(out, [&] {
            Span span("api.lab.dns_lookup_all");
            auto answers = laboratory.dns_lookup_all(probe_span, *h, mode);
            for (const auto& a : answers) fold(digest, a);
            if (mode == dns::QueryMode::Ldns && k < ldns_answers.size()) {
              ldns_answers[k] = std::move(answers);
            }
          });
          if (traced) tc.dns_all_probes += n_probes;
        }
        for (const cdn::Region& region : h->deployment.regions()) {
          call(out, [&] {
            Span span("api.lab.ping_all");
            for (const auto& rtt : laboratory.ping_all(probe_span, region.service_ip)) {
              fold(digest, rtt);
            }
          });
          call(out, [&] {
            Span span("api.lab.traceroute_all");
            for (const auto& tr : laboratory.traceroute_all(probe_span, region.service_ip)) {
              fold(digest, tr);
            }
          });
          if (traced) {
            tc.ping_all_probes += n_probes;
            tc.traceroute_all_probes += n_probes;
          }
        }
      }
      out.sweep_busy_share = sweep_mark.share_until(PoolMark::now());
    }

    // ---- scalar loop (Table 6) ----
    {
      Span scalar("bench.scalar");
      const std::pair<cdn::catalog::HostnameSet, const lab::DeploymentHandle*> sets[] = {
          {cdn::catalog::imperva6_hostnames(), im6},
          {cdn::catalog::edgio3_hostnames(), e3},
          {cdn::catalog::edgio4_hostnames(), e4},
      };
      for (std::size_t k = 0; k < std::size(sets); ++k) {
        const auto& [set, handle] = sets[k];
        if (handle == nullptr) continue;
        const std::vector<lab::Lab::DnsAnswer>& batch = ldns_answers[k];
        for (const std::string& hostname : set.hostnames) {
          const std::uint64_t salt = salt_of(hostname);
          out.calls += 2 * probes.size();
          try {
            for (std::size_t i = 0; i < probes.size(); ++i) {
              const atlas::Probe& p = *probes[i];
              lab::Lab::DnsAnswer answer;
              std::optional<Rtt> rtt;
              if (traced) {
                const std::uint64_t t0 = now_ns();
                answer = laboratory.dns_lookup(p, *handle, dns::QueryMode::Ldns);
                const std::uint64_t t1 = now_ns();
                rtt = laboratory.ping(p, answer.address, salt);
                tc.ping.add(now_ns() - t1);
                tc.dns_lookup.add(t1 - t0);
              } else {
                answer = laboratory.dns_lookup(p, *handle, dns::QueryMode::Ldns);
                rtt = laboratory.ping(p, answer.address, salt);
              }
              // The batch API promises slot i equals the scalar answer.
              if (i < batch.size() &&
                  (batch[i].address != answer.address || batch[i].region != answer.region)) {
                ++out.scalar_mismatches;
              }
              fold(digest, answer);
              fold(digest, rtt);
            }
          } catch (const std::exception&) {
            ++out.threw;
          }
        }
      }
    }
  }
  const PoolMark campaign_end = PoolMark::now();
  out.campaign_s = seconds_between(campaign_start, campaign_end.at_ns);
  out.stolen_s = host_stolen_s() - stolen_start;
  out.campaign_busy_share = campaign_mark.share_until(campaign_end);
  out.digest = digest.value();
  return out;
}

}  // namespace

void run_paper(const Options& opt, Report& report) {
  const unsigned nproc = std::max(1u, std::thread::hardware_concurrency());
  MemoryProbe probe;  // forked before the pool's threads start
  exec::ThreadPool::global().resize(nproc);
  report.threads_used(nproc);  // the calling thread is one of the pool's workers

  const std::size_t worlds = opt.quick ? kQuickWorlds : kWorlds;
  // Traced runs trace the first cycle of worlds and measure the same worlds
  // untraced afterwards, for the overhead figure.
  const std::size_t min_runs = opt.trace ? 2 * worlds : worlds;
  const std::uint64_t deadline = now_ns() + static_cast<std::uint64_t>(opt.seconds * 1e9);

  std::vector<WorldRun> runs;  // runs[i] measured world i % worlds
  // walks[i] and walks[i + 1]: the probe's walks right before and after runs[i]
  std::vector<double> walks{probe.walk_s()};
  TracedCalls tc;
  for (std::size_t i = 0;; ++i) {
    const std::size_t w = i % worlds;
    const bool traced = opt.trace && i < worlds;
    set_tracing(traced);
    runs.push_back(run_world(opt, w, traced, tc));
    set_tracing(false);
    walks.push_back(probe.walk_s());
    if (runs.size() >= min_runs && now_ns() >= deadline) break;
  }

  std::vector<double> setup, campaign, walk, scaled;
  std::vector<std::uint64_t> first_digest(worlds, 0);
  std::uint64_t calls = 0, threw = 0, mismatches = 0;
  for (std::size_t i = 0; i < runs.size(); ++i) {
    const WorldRun& r = runs[i];
    const std::size_t w = i % worlds;
    calls += r.calls;
    threw += r.threw;
    mismatches += r.scalar_mismatches;
    if (i < worlds) {
      first_digest[w] = r.digest;
    } else {
      report.check(r.digest == first_digest[w],
                   "paper world " + std::to_string(w) + ": digest differs between repeats");
    }
    // End-to-end figures come from untraced worlds only.
    if (opt.trace && i < worlds) continue;
    setup.push_back(r.setup_s);
    campaign.push_back(r.campaign_s);
    // Interference only ever slows a walk: the faster one reads the machine best.
    walk.push_back(std::min(walks[i], walks[i + 1]));
    scaled.push_back((r.campaign_s - r.stolen_s / nproc) * kWalkRefS / walk.back());
  }
  report.check(threw == 0, std::to_string(threw) + " paper calls threw");
  report.check(mismatches == 0, std::to_string(mismatches) +
                                    " scalar dns_lookup answers differ from dns_lookup_all");
  report.attempted(calls);
  report.failed(threw);
  if (opt.inject == "flip-digest") first_digest[0] ^= 1;
  for (std::size_t w = 0; w < worlds; ++w) {
    report.digest("paper.world" + std::to_string(w), first_digest[w]);
  }
  io::JsonArray by_world;
  for (std::size_t w = 0; w < worlds; ++w) {
    std::vector<double> times;
    for (std::size_t i = 0; i < runs.size(); ++i) {
      if (i % worlds == w) times.push_back(runs[i].campaign_s);
    }
    by_world.emplace_back(median(times));
  }
  report.stamp("campaign_s_by_world", std::move(by_world));
  report.stamp("worlds", static_cast<int>(worlds));
  report.stamp("world_runs", static_cast<int>(runs.size()));

  const double wall = median(campaign);
  const double walk_s = median(walk);
  const bool walked = std::all_of(walks.begin(), walks.end(), [](double w) { return w > 0.0; });
  report.check(walked, "the memory probe's child process failed");
  report.e2e("setup_s", median(setup), "s");
  report.e2e("wall_s", walked ? median(scaled) : wall, "s");
  report.e2e("peak_rss_mb", peak_rss_mb(), "MB");
  report.figure("paper.wall_s", wall, "s");
  report.figure("paper.memory_walk_s", walk_s, "s");
  report.figure("fail_share", calls == 0 ? 0.0 : static_cast<double>(threw) / calls, "ratio");
  report.figure("paper.calls_per_world", static_cast<double>(calls) / runs.size(), "count");

  if (!opt.trace) return;
  // ---- per-layer figures from the traced cycle ----
  std::vector<double> traced_campaign;
  std::vector<std::vector<double>> untraced_by_world(worlds);
  for (std::size_t i = 0; i < runs.size(); ++i) {
    if (i < worlds) {
      traced_campaign.push_back(runs[i].campaign_s);
    } else {
      untraced_by_world[i % worlds].push_back(runs[i].campaign_s);
    }
  }
  std::vector<double> ratios;
  double sweep_share = 0.0, campaign_share = 0.0;
  for (std::size_t w = 0; w < worlds; ++w) {
    ratios.push_back(traced_campaign[w] / median(untraced_by_world[w]));
    sweep_share += runs[w].sweep_busy_share / static_cast<double>(worlds);
    campaign_share += runs[w].campaign_busy_share / static_cast<double>(worlds);
  }
  const TraceAnalysis a = analyze_trace(tc.dns_lookup.total_ns() + tc.ping.total_ns());
  emit_trace_layers(report, a, median(ratios) - 1.0);
  auto per_probe = [&](const char* span, double probes) {
    const auto it = a.by_name.find(span);
    return it == a.by_name.end() || probes == 0 ? 0.0 : it->second.total_ns / probes;
  };
  report.layer("lab.create_ms", a.median_ms("api.lab.create"), "ms");
  report.layer("lab.add_deployment_ms", a.median_ms("api.lab.add_deployment"), "ms");
  report.layer("lab.add_deployment_count",
               static_cast<double>(a.by_name.count("api.lab.add_deployment")
                                       ? a.by_name.at("api.lab.add_deployment").count
                                       : 0),
               "count");
  report.layer("lab.dns_lookup_ns", tc.dns_lookup.mean_ns(), "ns");
  report.layer("lab.ping_ns", tc.ping.mean_ns(), "ns");
  report.layer("lab.dns_lookup_all_ns", per_probe("api.lab.dns_lookup_all", tc.dns_all_probes),
               "ns");
  report.layer("lab.ping_all_ns", per_probe("api.lab.ping_all", tc.ping_all_probes), "ns");
  report.layer("lab.traceroute_all_ns",
               per_probe("api.lab.traceroute_all", tc.traceroute_all_probes), "ns");
  report.layer("lab.compare_ms", a.median_ms("api.lab.compare_regional_global"), "ms");
  report.layer("tangled.run_study_ms", a.median_ms("api.tangled.run_study"), "ms");
  report.layer("exec.pool_busy_share", campaign_share, "ratio");
  report.layer("exec.pool_busy_share.sweep", sweep_share, "ratio");
  report.layer("paper.wall_s", median(traced_campaign), "s");
  // Scalar calls are timed, not spanned: their time is the lab's own.
  report.layer("lab.self_ms",
               a.layer_self_ms("lab") + (tc.dns_lookup.total_ns() + tc.ping.total_ns()) * 1e-6,
               "ms");
}

}  // namespace perfbench
