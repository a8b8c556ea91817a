// Workload `serve`: the mapping service under load. A serve::Server over a
// Paper-preset Lab with Imperva-6; the world drifts along
// configs/chaos_smoke.json, refreshed every 250 ms of wall time with a 20 ms
// build time. One refresher thread plus nproc-1 client threads, the pool at
// one worker.
//
//   set-up      Lab::create + add_deployment + Server up to its first
//               publish (done 15 times, the median is reported);
//   one client  one client calls query then pin, back to back, in blocks
//               that alternate with blocks of a reference loop (the gated
//               wall_s; see ReferenceLoop);
//   closed loop each client calls query then pin, back to back;
//   open loop   a rate ladder (250k .. 8M queries/s in total, split evenly
//               over the clients); each query is timed from its due time.
//
// Admission is sized above the top ladder rate, so a shed or rejected query
// is a failure. A fixed sample of served answers (every 1024th per client)
// is checked at the end of each phase, outside the timed calls, against the
// snapshot the refresher pinned for that epoch; the benchmark then lets go
// of every older snapshot, so peak RSS tracks the server's own memory.
#include <atomic>
#include <memory>
#include <mutex>
#include <thread>

#include "bench.hpp"
#include "ranycast/cdn/catalog.hpp"
#include "ranycast/chaos/scenario.hpp"
#include "ranycast/exec/pool.hpp"
#include "ranycast/obs/flight.hpp"
#include "ranycast/serve/server.hpp"
#include "trace.hpp"

namespace perfbench {

using namespace ranycast;

namespace {

constexpr std::uint64_t kRefreshNs = 250'000'000;
constexpr std::uint64_t kBuildNs = 20'000'000;
constexpr std::uint64_t kBudgetUs = 1'000'000;
constexpr std::uint64_t kLatencyLimitNs = 20'000'000;  // p99 limit of a ladder step
constexpr std::uint64_t kLateNs = 1'000'000;           // sent this late counts as late
constexpr std::uint64_t kSampleEvery = 1024;
constexpr std::size_t kSetups = 15;
constexpr std::size_t kBlock = 2000;    // calls per block of the one-client loop
constexpr double kReferenceNs = 160.0;  // a reference operation on a quiet machine
constexpr std::uint64_t kDriftEpochs = 5;  // configs/chaos_smoke.json has five events
constexpr double kLadder[] = {250e3, 500e3, 1e6, 2e6, 4e6, 8e6};
constexpr const char* kLadderNames[] = {"250k", "500k", "1M", "2M", "4M", "8M"};

/// A Lab plus the server over it (Lab cannot move, so it lives in here).
struct Service {
  lab::Lab laboratory;
  const lab::DeploymentHandle* handle{nullptr};
  std::unique_ptr<serve::Server> server;
  std::uint64_t origin_ns{0};  ///< wall time of virtual time zero

  explicit Service(const lab::LabConfig& cfg) : laboratory([&] {
    Span span("api.lab.create");
    return lab::Lab::create(cfg);
  }()) {}

  std::uint64_t virtual_now() const { return now_ns() - origin_ns; }
};

struct Sample {
  std::uint64_t client;
  serve::QueryResult result;
};

/// Snapshots the refresher pinned, by epoch, held until the samples that
/// may name them are checked; plus the fingerprints of the drift epochs.
class EpochStore {
 public:
  void keep(std::shared_ptr<const serve::WorldSnapshot> snap) {
    if (!snap) return;
    const std::lock_guard<std::mutex> lock(mutex_);
    if (snap->epoch <= kDriftEpochs) drift_fingerprints_[snap->epoch] = snap->fingerprint;
    by_epoch_.emplace(snap->epoch, std::move(snap));
  }
  std::shared_ptr<const serve::WorldSnapshot> find(std::uint64_t epoch) const {
    const std::lock_guard<std::mutex> lock(mutex_);
    const auto it = by_epoch_.find(epoch);
    return it == by_epoch_.end() ? nullptr : it->second;
  }
  /// Waits (up to a second) until the refresher has pinned `epoch`: a query
  /// can see a publish just before the refresher pins it.
  void wait_for(std::uint64_t epoch) const {
    for (int i = 0; i < 1000; ++i) {
      {
        const std::lock_guard<std::mutex> lock(mutex_);
        if (!by_epoch_.empty() && by_epoch_.rbegin()->first >= epoch) return;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  }
  /// Removes and returns every snapshot but the newest (all of them if
  /// `everything`).
  std::vector<std::shared_ptr<const serve::WorldSnapshot>> take_old(bool everything) {
    const std::lock_guard<std::mutex> lock(mutex_);
    std::vector<std::shared_ptr<const serve::WorldSnapshot>> out;
    const std::size_t keep = everything ? 0 : 1;
    while (by_epoch_.size() > keep) {
      out.push_back(std::move(by_epoch_.begin()->second));
      by_epoch_.erase(by_epoch_.begin());
    }
    return out;
  }
  void clear() {
    const std::lock_guard<std::mutex> lock(mutex_);
    by_epoch_.clear();
    drift_fingerprints_.clear();
  }
  const std::map<std::uint64_t, std::uint64_t>& drift_fingerprints() const {
    return drift_fingerprints_;
  }

 private:
  mutable std::mutex mutex_;
  std::map<std::uint64_t, std::shared_ptr<const serve::WorldSnapshot>> by_epoch_;
  std::map<std::uint64_t, std::uint64_t> drift_fingerprints_;
};

/// Checks each phase's sampled answers when the phase ends, outside every
/// timed call, then retires the snapshots no later answer can name.
class SampleChecker {
 public:
  SampleChecker(EpochStore& store, Report& report, bool forge)
      : store_(store), report_(report), forge_(forge) {}

  void phase_done(const serve::Server& server, std::vector<Sample>& samples) {
    if (forge_ && !samples.empty()) {
      samples.front().result.entry.rtt_ms += 1.0;
      forge_ = false;
    }
    store_.wait_for(server.current_epoch());
    for (const Sample& s : samples) {
      ++checked_;
      if (s.result.status != serve::QueryStatus::Served) continue;  // counted as not served
      const auto snap = store_.find(s.result.epoch);
      const bool ok = snap != nullptr && !snap->entries.empty() &&
                      s.result.fingerprint == snap->fingerprint &&
                      s.result.entry == snap->entries[s.client % snap->entries.size()];
      if (!ok) ++bad_;
    }
    samples.clear();
    retire(false);
  }
  /// After the last phase: checks and releases the snapshots still held.
  void finish() { retire(true); }
  std::size_t checked() const { return checked_; }
  std::size_t bad() const { return bad_; }

 private:
  void retire(bool everything) {
    for (const auto& snap : store_.take_old(everything)) {
      report_.check(serve::snapshot_fingerprint(*snap) == snap->fingerprint,
                    "epoch " + std::to_string(snap->epoch) +
                        ": snapshot content does not match its fingerprint");
    }
  }

  EpochStore& store_;
  Report& report_;
  bool forge_;
  std::size_t checked_{0};
  std::size_t bad_{0};
};

/// Ticks the server every millisecond of wall time. The first tick past
/// each refresh boundary starts a build — applies the next world-drift
/// event and builds the snapshot, holding the server's lock — and is timed.
class Refresher {
 public:
  Refresher(Service& svc, EpochStore& store) : svc_(svc), store_(store) {}
  ~Refresher() { stop(); }
  Refresher(const Refresher&) = delete;
  Refresher& operator=(const Refresher&) = delete;

  void start() {
    thread_ = std::thread([this] { loop(); });
  }
  void stop() {
    stop_.store(true);
    if (thread_.joinable()) thread_.join();
  }
  const std::vector<double>& build_ms() const { return build_ms_; }
  const std::string& error() const { return error_; }

 private:
  void loop() {
    try {
      tick_until_stopped();
    } catch (const std::exception& e) {
      error_ = e.what();
    }
  }

  void tick_until_stopped() {
    obs::set_thread_name("serve.refresher");
    std::uint64_t last_v = svc_.virtual_now();
    std::uint64_t last_epoch = svc_.server->current_epoch();
    while (!stop_.load(std::memory_order_relaxed)) {
      const std::uint64_t v = svc_.virtual_now();
      const bool builds = v / kRefreshNs != last_v / kRefreshNs;
      const std::uint64_t t0 = now_ns();
      core::Expected<std::monostate, std::string> ticked = [&] {
        if (!builds) return svc_.server->tick(v);
        Span span("api.serve.tick");
        return svc_.server->tick(v);
      }();
      if (builds) build_ms_.push_back(static_cast<double>(now_ns() - t0) * 1e-6);
      if (!ticked) {
        error_ = ticked.error();
        return;
      }
      const std::uint64_t epoch = svc_.server->current_epoch();
      if (epoch != last_epoch) store_.keep(svc_.server->pin());
      last_epoch = epoch;
      last_v = v;
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  }

  Service& svc_;
  EpochStore& store_;
  std::atomic<bool> stop_{false};
  std::vector<double> build_ms_;
  std::string error_;
  std::thread thread_;  // last: the thread uses every member above
};

serve::ServeConfig serve_config(const chaos::FaultPlan& drift) {
  serve::ServeConfig cfg;
  cfg.refresh_interval_ns = kRefreshNs;
  cfg.build_time_ns = kBuildNs;
  cfg.world_plan = drift;
  // Sized above the top ladder rate: nothing should be shed. A query's
  // virtual arrival time is read before it waits for the server's lock, so
  // a build stall shows up as backlog; the queue absorbs ~50 s of it and
  // the deadline budget (kBudgetUs) sheds only a query that waited > 1 s.
  cfg.admission.rate_qps = 16e6;
  cfg.admission.burst = 16'000'000;
  cfg.admission.max_queue_depth = 1u << 30;
  cfg.admission.service_time_ns = 50;
  return cfg;
}

/// Builds a service and ticks it until the first epoch is published.
std::unique_ptr<Service> set_up(const lab::LabConfig& lab_cfg, const serve::ServeConfig& cfg,
                                EpochStore& store) {
  auto svc = std::make_unique<Service>(lab_cfg);
  {
    Span span("api.lab.add_deployment");
    svc->handle = &svc->laboratory.add_deployment(cdn::catalog::imperva6());
  }
  svc->server = std::make_unique<serve::Server>(svc->laboratory, *svc->handle, cfg);
  // Virtual time 0 starts the first build (the real work, done inside the
  // tick); virtual time kBuildNs publishes it. Virtual time then runs on
  // from kBuildNs, so set-up does not sleep through the modeled build time.
  for (const std::uint64_t v : {std::uint64_t{0}, kBuildNs}) {
    Span span("api.serve.tick");
    if (!svc->server->tick(v)) return nullptr;
  }
  svc->origin_ns = now_ns() - kBuildNs;
  if (svc->server->current_epoch() == 0) return nullptr;
  store.keep(svc->server->pin());
  return svc;
}

/// Runs a client thread's body; an exception is recorded, not lost.
template <typename F>
void run_client(std::string& error, F&& body) {
  try {
    body();
  } catch (const std::exception& e) {
    error = e.what();
  }
}

std::uint64_t client_id(std::uint64_t seed, std::size_t thread, std::uint64_t i) {
  return mix(mix(seed, thread), i);
}

struct ClientTally {
  std::string error;
  std::uint64_t queries{0};
  std::uint64_t not_served{0};
  LogHistogram query_ns, pin_ns;
  std::vector<Sample> samples;
};

/// Closed loop for `seconds`: every client calls query then pin.
double closed_loop(Service& svc, std::size_t clients, std::uint64_t seed, double seconds,
                   bool traced, std::vector<ClientTally>& tallies) {
  std::atomic<bool> stop{false};
  std::vector<std::thread> threads;
  tallies.assign(clients, ClientTally{});
  const std::uint64_t start = now_ns();
  for (std::size_t t = 0; t < clients; ++t) {
    threads.emplace_back([&, t] {
      obs::set_thread_name("bench.client-" + std::to_string(t));
      ClientTally& tally = tallies[t];
      RequestScope request(t + 1);
      Span root("bench.closed_loop");
      run_client(tally.error, [&] {
        for (std::uint64_t i = 0; !stop.load(std::memory_order_relaxed); ++i) {
          const std::uint64_t id = client_id(seed, t, i);
          serve::QueryResult r;
          if (traced) {
            const std::uint64_t t0 = now_ns();
            r = svc.server->query(id, t0 - svc.origin_ns, kBudgetUs);
            const std::uint64_t t1 = now_ns();
            const auto pinned = svc.server->pin();
            tally.pin_ns.add(now_ns() - t1);
            tally.query_ns.add(t1 - t0);
          } else {
            r = svc.server->query(id, svc.virtual_now(), kBudgetUs);
            const auto pinned = svc.server->pin();
          }
          ++tally.queries;
          if (r.status != serve::QueryStatus::Served) ++tally.not_served;
          if (i % kSampleEvery == 0) tally.samples.push_back({id, r});
        }
      });
    });
  }
  std::this_thread::sleep_for(std::chrono::duration<double>(seconds));
  stop.store(true);
  for (std::thread& th : threads) th.join();
  const double wall = seconds_between(start, now_ns());
  std::uint64_t total = 0;
  for (const ClientTally& t : tallies) total += t.queries;
  return static_cast<double>(total) / wall;
}

/// The yardstick of the one-client loop: the kinds of work a query does (a
/// clock read, locks, atomic adds, shared_ptr copies) on the benchmark's own
/// objects. The host's other tenants slow it as they slow the queries run
/// beside it, while a change to the program leaves it alone.
class ReferenceLoop {
 public:
  void run(std::size_t n) {
    for (std::size_t i = 0; i < n; ++i) {
      {
        const std::lock_guard<std::mutex> lock(mutex_);
        counter_.fetch_add(1);
      }
      {
        const std::lock_guard<std::mutex> lock(mutex_);
        hash_ = mix(hash_, now_ns());
      }
      const auto a = shared_, b = shared_;
      hash_ += *a + *b + counter_.load();
    }
    asm volatile("" : : "r"(hash_));  // keeps the hash, and so its work, alive
  }

 private:
  std::mutex mutex_;
  std::atomic<std::uint64_t> counter_{0};
  std::shared_ptr<const std::uint64_t> shared_ = std::make_shared<const std::uint64_t>(1);
  std::uint64_t hash_{0};
};

struct OneClient {
  double query_ns{0.0};      ///< median per query + pin over the blocks
  double reference_ns{0.0};  ///< median per reference operation
  double ratio{0.0};         ///< median over the blocks of query / reference time
};

/// One client for `seconds`: blocks of kBlock query + pin calls, each
/// followed by kBlock reference operations on the same thread. Medians over
/// the blocks leave out the blocks a build stall or a stolen CPU slows; the
/// ratio also leaves out the machine's slower phases, which last longer
/// than a run.
OneClient one_client(Service& svc, std::uint64_t seed, double seconds, ClientTally& tally) {
  ReferenceLoop reference;
  std::vector<double> query_ns, reference_ns, ratio;
  const std::uint64_t end = now_ns() + static_cast<std::uint64_t>(seconds * 1e9);
  run_client(tally.error, [&] {
    for (std::uint64_t i = 0; now_ns() < end;) {
      const std::uint64_t t0 = now_ns();
      for (std::size_t k = 0; k < kBlock; ++k, ++i) {
        const std::uint64_t id = client_id(seed, 0, i);
        const serve::QueryResult r = svc.server->query(id, svc.virtual_now(), kBudgetUs);
        const auto pinned = svc.server->pin();
        if (r.status != serve::QueryStatus::Served) ++tally.not_served;
        if (i % kSampleEvery == 0) tally.samples.push_back({id, r});
      }
      const std::uint64_t t1 = now_ns();
      reference.run(kBlock);
      const std::uint64_t t2 = now_ns();
      tally.queries += kBlock;
      query_ns.push_back(static_cast<double>(t1 - t0) / kBlock);
      reference_ns.push_back(static_cast<double>(t2 - t1) / kBlock);
      ratio.push_back(query_ns.back() / reference_ns.back());
    }
  });
  return {median(std::move(query_ns)), median(std::move(reference_ns)), median(std::move(ratio))};
}

struct StepResult {
  std::string error;
  double rate{0.0};
  std::uint64_t due{0};
  std::uint64_t missed{0};
  std::uint64_t late{0};
  std::uint64_t not_served{0};
  bool caught_up{true};
  LogHistogram latency;
  std::uint64_t kept{0};  ///< exact latencies kept (first step only)
  double exact_p50_ns{0.0}, exact_p99_ns{0.0};
  std::vector<Sample> samples;

  double p99_ns() const {
    // Missed queries never got an answer: they count as beyond any limit.
    const double answered = static_cast<double>(latency.count());
    const double total = answered + static_cast<double>(missed);
    if (total == 0) return 0.0;
    if (answered < 0.99 * total) return INFINITY;
    return latency.quantile_ns(0.99 * total / answered);
  }
  bool meets_limit() const {
    return caught_up && p99_ns() <= static_cast<double>(kLatencyLimitNs);
  }
};

/// One open-loop step at `rate` queries/s in total for `seconds`.
StepResult open_loop(Service& svc, std::size_t clients, std::uint64_t seed, std::size_t step,
                     double rate, double seconds, bool keep_exact) {
  StepResult res;
  res.rate = rate;
  const double period = static_cast<double>(clients) * 1e9 / rate;
  const std::uint64_t start = now_ns() + 1'000'000;
  const std::uint64_t end = start + static_cast<std::uint64_t>(seconds * 1e9);
  // Exact latencies: one slice per client, sized from the due count.
  const std::size_t slice = keep_exact ? static_cast<std::size_t>(seconds * 1e9 / period) + 2 : 0;
  std::vector<double> exact_ns(slice * clients);
  std::vector<StepResult> per(clients);
  std::vector<std::thread> threads;
  for (std::size_t t = 0; t < clients; ++t) {
    threads.emplace_back([&, t] {
      obs::set_thread_name("bench.client-" + std::to_string(t));
      StepResult& r = per[t];
      const double offset = period * static_cast<double>(t) / static_cast<double>(clients);
      run_client(r.error, [&] {
        for (std::uint64_t k = 0;; ++k) {
          const auto due =
              start + static_cast<std::uint64_t>(offset + period * static_cast<double>(k));
          if (due >= end) break;
          std::uint64_t now = now_ns();
          while (now < due) now = now_ns();
          if (now >= end + kLatencyLimitNs) {
            // Still this far behind when the step is over: the backlog grew.
            r.caught_up = false;
            r.missed = static_cast<std::uint64_t>(
                std::ceil(static_cast<double>(end - due) / period));
            r.due += r.missed;
            r.late += r.missed;
            break;
          }
          ++r.due;
          if (now - due > kLateNs) ++r.late;
          const std::uint64_t id = client_id(seed, t, (std::uint64_t{step + 1} << 40) + k);
          const serve::QueryResult q = svc.server->query(id, now - svc.origin_ns, kBudgetUs);
          const std::uint64_t done = now_ns();
          r.latency.add(done - due);
          if (r.kept < slice) exact_ns[t * slice + r.kept++] = static_cast<double>(done - due);
          if (q.status != serve::QueryStatus::Served) ++r.not_served;
          if (k % kSampleEvery == 0) r.samples.push_back({id, q});
        }
      });
    });
  }
  for (std::thread& th : threads) th.join();
  for (StepResult& r : per) {
    if (res.error.empty()) res.error = r.error;
    res.due += r.due;
    res.missed += r.missed;
    res.late += r.late;
    res.not_served += r.not_served;
    res.caught_up = res.caught_up && r.caught_up;
    res.latency.merge(r.latency);
    res.samples.insert(res.samples.end(), r.samples.begin(), r.samples.end());
  }
  for (std::size_t t = 0; t < clients; ++t) {
    std::copy_n(exact_ns.begin() + static_cast<std::ptrdiff_t>(t * slice), per[t].kept,
                exact_ns.begin() + static_cast<std::ptrdiff_t>(res.kept));
    res.kept += per[t].kept;
  }
  exact_ns.resize(res.kept);
  std::sort(exact_ns.begin(), exact_ns.end());
  res.exact_p50_ns = sorted_quantile(exact_ns, 0.50);
  res.exact_p99_ns = sorted_quantile(exact_ns, 0.99);
  return res;
}

}  // namespace

void run_serve(const Options& opt, Report& report) {
  const unsigned nproc = std::max(1u, std::thread::hardware_concurrency());
  const std::size_t clients = std::max(1u, nproc - 1);
  exec::ThreadPool::global().resize(1);
  report.threads_used(static_cast<unsigned>(1 + clients));

  auto drift = chaos::load_plan(opt.root + "/configs/chaos_smoke.json");
  if (!drift) {
    report.check(false, "cannot load configs/chaos_smoke.json: " + drift.error().to_string());
    return;
  }
  lab::LabConfig lab_cfg;
  if (opt.quick) {
    lab_cfg.world.stub_count = 300;
    lab_cfg.census.total_probes = 800;
  }
  const serve::ServeConfig cfg = serve_config(*drift);

  // ---- set-up, several times; the last service is the one measured ----
  set_tracing(opt.trace);
  EpochStore store;
  std::unique_ptr<Service> svc;
  std::vector<double> setups;
  for (std::size_t s = 0; s < kSetups; ++s) {
    svc.reset();
    store.clear();
    const std::uint64_t t0 = now_ns();
    {
      Span root("bench.setup");
      svc = set_up(lab_cfg, cfg, store);
    }
    setups.push_back(seconds_between(t0, now_ns()));
    if (!svc) {
      report.check(false, "serve: the first epoch never published");
      return;
    }
  }
  set_tracing(false);

  Refresher refresher(*svc, store);
  refresher.start();
  SampleChecker checker(store, report, opt.inject == "forge-serve");
  auto closed_done = [&](std::vector<ClientTally>& tallies) {
    std::vector<Sample> samples;
    for (ClientTally& t : tallies) {
      samples.insert(samples.end(), t.samples.begin(), t.samples.end());
      t.samples.clear();
    }
    checker.phase_done(*svc->server, samples);
  };

  // ---- one client, the gated loop ----
  std::vector<ClientTally> single(1);
  const OneClient one =
      one_client(*svc, opt.seed, opt.quick ? 0.5 : opt.seconds * 0.3, single.front());
  closed_done(single);

  // ---- closed loop (traced runs measure it untraced, then traced) ----
  const double closed_s = opt.quick ? 0.5 : opt.seconds * 0.15;
  std::vector<ClientTally> closed, traced_closed;
  const double qps = closed_loop(*svc, clients, opt.seed, closed_s, false, closed);
  closed_done(closed);
  double traced_qps = 0.0;
  if (opt.trace) {
    set_tracing(true);
    traced_qps = closed_loop(*svc, clients, opt.seed, closed_s, true, traced_closed);
    set_tracing(false);
    closed_done(traced_closed);
  }

  // ---- open-loop ladder ----
  const double step_s = opt.quick ? 0.1 : opt.seconds * 0.55 / std::size(kLadder);
  std::vector<StepResult> steps;
  for (std::size_t i = 0; i < std::size(kLadder); ++i) {
    steps.push_back(open_loop(*svc, clients, opt.seed, i, kLadder[i], step_s, i == 0));
    checker.phase_done(*svc->server, steps.back().samples);
  }
  // The digest needs every drift epoch; short runs wait for them here.
  for (int i = 0; i < 1000 && svc->server->current_epoch() < kDriftEpochs; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  refresher.stop();
  report.check(refresher.error().empty(), "serve refresher failed: " + refresher.error());
  checker.finish();

  // ---- checks, outside every timed call ----
  std::uint64_t not_served = 0, queries = 0;
  for (const auto* group : {&single, &closed, &traced_closed}) {
    for (const ClientTally& t : *group) {
      report.check(t.error.empty(), "serve client failed: " + t.error);
      not_served += t.not_served;
      queries += t.queries;
    }
  }
  for (const StepResult& s : steps) {
    report.check(s.error.empty(), "serve client failed: " + s.error);
    not_served += s.not_served;
    queries += s.due - s.missed;
  }
  report.check(checker.bad() == 0, std::to_string(checker.bad()) + " of " +
                                       std::to_string(checker.checked()) +
                                       " sampled answers differ from their epoch's snapshot");
  // Epochs 1..5 hold the world after each of the five drift events: their
  // content is deterministic, so their fingerprints are the run's digest.
  Digest digest;
  for (std::uint64_t epoch = 1; epoch <= kDriftEpochs; ++epoch) {
    const auto it = store.drift_fingerprints().find(epoch);
    const bool seen = it != store.drift_fingerprints().end();
    report.check(seen, "serve: epoch " + std::to_string(epoch) + " never published");
    digest.u64(seen ? it->second : 0);
  }
  report.digest("serve.drift_epochs", digest.value() ^ (opt.inject == "flip-digest" ? 1 : 0));
  const serve::ServeStats stats = svc->server->stats();
  const std::uint64_t shed = stats.shed_queue + stats.shed_deadline + stats.shed_rate;
  report.check(shed + stats.rejected == 0 && not_served == 0,
               "serve shed " + std::to_string(shed) + " (queue " +
                   std::to_string(stats.shed_queue) + ", deadline " +
                   std::to_string(stats.shed_deadline) + ", rate " +
                   std::to_string(stats.shed_rate) + ") and rejected " +
                   std::to_string(stats.rejected) + " queries");
  report.attempted(queries);
  report.failed(shed + stats.rejected);
  report.stamp("clients", static_cast<int>(clients));
  report.stamp("sampled_answers", static_cast<double>(checker.checked()));

  // ---- figures ----
  const StepResult& first = steps.front();
  const double p50_us = first.exact_p50_ns * 1e-3;
  const double p99_us = first.exact_p99_ns * 1e-3;
  double max_qps = 0.0;
  for (const StepResult& s : steps) {
    if (s.meets_limit()) max_qps = std::max(max_qps, s.rate);
  }
  const std::vector<double>& builds = refresher.build_ms();
  report.e2e("setup_s", median(setups), "s");
  // Seconds per million one-client queries, at the reference loop's speed
  // on a quiet machine.
  report.e2e("wall_s", one.ratio * kReferenceNs * 1e-3, "s");
  report.e2e("peak_rss_mb", peak_rss_mb(), "MB");
  report.figure("fail_share",
                stats.queries == 0 ? 0.0
                                   : static_cast<double>(shed + stats.rejected) / stats.queries,
                "ratio");
  report.figure("serve.qps", qps, "queries/s");
  report.figure("serve.one_client_ns", one.query_ns, "ns");
  report.figure("serve.reference_ns", one.reference_ns, "ns");
  report.figure("serve.p99_samples", static_cast<double>(first.kept), "count");

  // Figures of the untraced ladder and the refresher, which traced runs
  // also report as per-layer metrics.
  if (opt.trace) {
    LogHistogram query_ns, pin_ns;
    double tallied = 0.0;
    for (const ClientTally& t : traced_closed) {
      query_ns.merge(t.query_ns);
      pin_ns.merge(t.pin_ns);
      tallied += t.query_ns.total_ns() + t.pin_ns.total_ns();
    }
    const TraceAnalysis a = analyze_trace(tallied);
    emit_trace_layers(report, a, traced_qps > 0 ? qps / traced_qps - 1.0 : 0.0);
    report.layer("lab.create_ms", a.median_ms("api.lab.create"), "ms");
    report.layer("lab.add_deployment_ms", a.median_ms("api.lab.add_deployment"), "ms");
    report.layer("lab.add_deployment_count", static_cast<double>(kSetups), "count");
    report.layer("serve.query_p50_ns", query_ns.quantile_ns(0.50), "ns");
    report.layer("serve.query_p99_ns", query_ns.quantile_ns(0.99), "ns");
    report.layer("serve.pin_p50_ns", pin_ns.quantile_ns(0.50), "ns");
    report.layer("serve.pin_p99_ns", pin_ns.quantile_ns(0.99), "ns");
    report.layer("serve.shed", static_cast<double>(shed), "count");
    report.layer("serve.rejected", static_cast<double>(stats.rejected), "count");
    report.layer("serve.qps", traced_qps, "queries/s");
    // query and pin are timed, not spanned: their time is the server's own.
    report.layer("serve.self_ms", a.layer_self_ms("serve") + tallied * 1e-6, "ms");
  }
  auto both = [&](const std::string& name, double value, const char* unit) {
    report.figure(name, value, unit);
    if (opt.trace) report.layer(name, value, unit);
  };
  both("serve.p50_us", p50_us, "us");
  both("serve.p99_us", p99_us, "us");
  both("serve.max_qps", max_qps, "queries/s");
  both("serve.build_median_ms", median(builds), "ms");
  both("serve.build_max_ms", quantile(builds, 1.0), "ms");
  both("serve.epochs_published", static_cast<double>(stats.epochs_published), "count");
  for (std::size_t i = 0; i < steps.size(); ++i) {
    const StepResult& s = steps[i];
    both(std::string("serve.late_share.") + kLadderNames[i],
         s.due == 0 ? 0.0 : static_cast<double>(s.late) / s.due, "ratio");
  }
}

}  // namespace perfbench
