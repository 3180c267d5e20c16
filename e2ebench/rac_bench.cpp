// rac_bench: one run of the RAC end-to-end benchmark, printed as one JSON
// object on stdout. run.py builds it, runs it, checks what it printed and
// turns that into the benchmark's result line.
//
//   rac_bench <workload> --seed S [--seconds T] [--trace] [--smoke]
//
// DES workloads repeat fixed-horizon episodes, each a fresh rac::Simulation,
// until --seconds is spent, and report medians. With --trace every untraced
// episode is followed by its traced twin (twin.hpp), and the layer split is
// reported instead. live_n3 runs three net::NodeDrivers over loopback TCP
// for --seconds. --smoke shrinks every workload for the correctness lane.
// README.md says why each workload exists and defines every metric.
#include <sched.h>
#include <sys/resource.h>
#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <functional>
#include <latch>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "net/node_driver.hpp"
#include "net/socket.hpp"
#include "rac/simulation.hpp"
#include "telemetry/telemetry.hpp"
#include "twin.hpp"

#ifndef RAC_BENCH_BUILD_TYPE
#define RAC_BENCH_BUILD_TYPE "unknown"
#endif
#ifndef RAC_BENCH_COMPILER
#define RAC_BENCH_COMPILER __VERSION__
#endif

namespace {

using Clock = std::chrono::steady_clock;
using rac::kMillisecond;
using rac::SimDuration;
using Metrics = std::map<std::string, double>;

// live_n3: the deployed transport at a live-safe constant rate.
constexpr std::size_t kLiveNodes = 3;
constexpr SimDuration kLivePeriod = 1 * kMillisecond;
// Set-up is timed on this many extra meshes that run 1 ms of protocol.
constexpr int kLiveSetupMeshes = 4;

// Before each DES episode, set-up is timed on every CPU at least kMinSetups
// times and until that CPU's share of kSetupBudgetS has gone into it
// (set-ups of small deployments take well under 1 ms), at most kMaxSetups
// times.
constexpr std::size_t kMinSetups = 5;
constexpr std::size_t kMaxSetups = 200;
constexpr double kSetupBudgetS = 0.1;

struct Workload {
  std::string name;
  bool live = false;
  rac::SimulationConfig des;  // DES workloads
  SimDuration horizon = 0;    // simulated time per DES episode
};

Workload make_workload(const std::string& name, std::uint64_t seed,
                       bool smoke) {
  Workload w;
  w.name = name;
  rac::SimulationConfig& c = w.des;
  c.seed = seed;
  c.node.num_relays = 5;
  c.node.num_rings = 7;
  c.node.payload_size = 2'000;
  c.node.send_period = 0;  // saturation pacing
  c.node.saturation_window = 16;
  c.node.check_sweep_period = 0;
  if (name == "fig3_n100") {
    c.num_nodes = smoke ? 40 : 100;
    w.horizon = (smoke ? 200 : 400) * kMillisecond;
  } else if (name == "groups_n1000_k4") {
    c.num_nodes = smoke ? 100 : 1'000;
    c.group_target = smoke ? 25 : 100;
    c.shards = smoke ? 2 : 4;
    w.horizon = (smoke ? 100 : 150) * kMillisecond;
  } else if (name == "crypto_n32") {
    c.num_nodes = smoke ? 8 : 32;
    c.provider = rac::SimulationConfig::Provider::kOpenSsl;
    w.horizon = (smoke ? 60 : 100) * kMillisecond;
  } else if (name == "live_n3") {
    w.live = true;
  } else {
    throw std::invalid_argument("unknown workload '" + name + "'");
  }
  return w;
}

/// live_n3's deployment; the peer table is filled in per mesh.
rac::net::Manifest live_manifest(std::uint64_t seed, SimDuration duration) {
  rac::net::Manifest m;
  m.seed = seed;
  m.num_groups = 1;
  m.provider = "openssl";
  m.node.num_relays = 1;
  m.node.num_rings = 2;
  m.node.payload_size = 256;
  m.node.send_period = kLivePeriod;
  m.node.check_sweep_period = 500 * kMillisecond;
  m.duration = duration;
  return m;
}

std::string describe(const Workload& w) {
  if (w.live) {
    const rac::net::Manifest m = live_manifest(0, 0);
    return "live nodes=" + std::to_string(kLiveNodes) +
           " provider=" + m.provider +
           " relays=" + std::to_string(m.node.num_relays) +
           " rings=" + std::to_string(m.node.num_rings) +
           " payload=" + std::to_string(m.node.payload_size) +
           " period_ns=" + std::to_string(m.node.send_period) +
           " sweep_ns=" + std::to_string(m.node.check_sweep_period);
  }
  const rac::SimulationConfig& c = w.des;
  static const char* const kProviders[] = {"sim", "native", "openssl"};
  return "des nodes=" + std::to_string(c.num_nodes) +
         " group_target=" + std::to_string(c.group_target) +
         " shards=" + std::to_string(c.shards) +
         " provider=" + kProviders[static_cast<int>(c.provider)] +
         " relays=" + std::to_string(c.node.num_relays) +
         " rings=" + std::to_string(c.node.num_rings) +
         " payload=" + std::to_string(c.node.payload_size) +
         " window=" + std::to_string(c.node.saturation_window) +
         " horizon_ns=" + std::to_string(w.horizon);
}

std::string fnv1a_hex(const std::string& s) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const char ch : s) {
    h ^= static_cast<unsigned char>(ch);
    h *= 0x100000001b3ULL;
  }
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(h));
  return buf;
}

// --- Small JSON writer ---------------------------------------------------

std::string quote(const std::string& s) {
  std::string out = "\"";
  for (const char ch : s) {
    const auto c = static_cast<unsigned char>(ch);
    if (c == '"' || c == '\\') {
      out += '\\';
      out += ch;
    } else if (c < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x", c);
      out += buf;
    } else {
      out += ch;
    }
  }
  return out + "\"";
}

std::string number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

class Json {
 public:
  Json& raw(const std::string& key, const std::string& value) {
    out_ += out_.empty() ? "{" : ", ";
    out_ += quote(key) + ": " + value;
    return *this;
  }
  Json& num(const std::string& key, double v) { return raw(key, number(v)); }
  Json& count(const std::string& key, std::uint64_t v) {
    return raw(key, std::to_string(v));
  }
  Json& text(const std::string& key, const std::string& v) {
    return raw(key, quote(v));
  }
  Json& flag(const std::string& key, bool v) {
    return raw(key, v ? "true" : "false");
  }
  std::string str() const { return out_.empty() ? "{}" : out_ + "}"; }

 private:
  std::string out_;
};

std::string to_json(const Metrics& m) {
  Json j;
  for (const auto& [k, v] : m) j.num(k, v);
  return j.str();
}

std::string to_json_array(const std::vector<std::string>& items) {
  std::string out = "[";
  for (std::size_t i = 0; i < items.size(); ++i) {
    out += (i > 0 ? ", " : "") + items[i];
  }
  return out + "]";
}

// --- Measurement helpers -------------------------------------------------

double seconds_since(Clock::time_point t) {
  return std::chrono::duration<double>(Clock::now() - t).count();
}

double cpu_seconds(clockid_t clock) {
  timespec ts{};
  if (::clock_gettime(clock, &ts) != 0) return 0.0;
  return static_cast<double>(ts.tv_sec) +
         static_cast<double>(ts.tv_nsec) * 1e-9;
}

double peak_rss_kib() {
  rusage ru{};
  ::getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss);  // KiB on Linux
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t mid = v.size() / 2;
  return v.size() % 2 == 1 ? v[mid] : 0.5 * (v[mid - 1] + v[mid]);
}

double ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

/// The highest of the usual percentiles that still has at least ten
/// samples beyond it, in per mille.
int tail_permille(std::uint64_t samples) {
  for (const int p : {999, 990, 950, 900, 750}) {
    if (samples * static_cast<std::uint64_t>(1000 - p) >= 10'000) return p;
  }
  return 500;
}

/// Onion latency percentiles from `quantile_ms(q)` over `samples` onions.
void add_latency(Metrics& m, std::uint64_t samples,
                 const std::function<double(double)>& quantile_ms) {
  const int tail = tail_permille(samples);
  m["rac.core.onion_p50_ms"] = samples > 0 ? quantile_ms(0.5) : 0.0;
  m["rac.core.onion_tail_ms"] = samples > 0 ? quantile_ms(tail / 1000.0) : 0.0;
  m["rac.core.onion_tail_pctile"] = tail / 10.0;
  m["rac.core.onion_samples"] = static_cast<double>(samples);
}

/// Run `once` at least once, then again while one more run of the length
/// of the last one still fits into `budget_s` counted from `start`.
void repeat_within(Clock::time_point start, double budget_s,
                   const std::function<void()>& once) {
  for (;;) {
    const auto t = Clock::now();
    once();
    if (seconds_since(start) + seconds_since(t) > budget_s) return;
  }
}

// --- DES workloads -------------------------------------------------------

struct Episode {
  std::string kind;  // "simulation" or "twin"
  double setup_s = 0;
  double wall_s = 0;
  double cpu_s = 0;
  std::uint64_t events = 0;
  std::uint64_t delivered = 0;
  std::uint64_t cells = 0;

  std::string json() const {
    return Json()
        .text("kind", kind)
        .num("setup_s", setup_s)
        .num("wall_s", wall_s)
        .num("cpu_s", cpu_s)
        .count("events", events)
        .count("delivered", delivered)
        .count("cells", cells)
        .str();
  }
};

/// Broadcast cells a core originated: own onions, relay rebroadcasts and
/// noise (one per send slot that sent anything).
std::uint64_t cells_originated(const rac::sim::Counters& c) {
  return c.get("data_cells_sent") + c.get("relay_rebroadcasts") +
         c.get("noise_cells_sent");
}

/// Moves the calling thread over the CPUs the process may use, one per
/// pin_next(), and gives it the whole set back on release() and on
/// destruction. On a shared host the vCPUs run at different speeds (a
/// 100-node set-up measured 85 us on some vCPUs and up to 130 us on others),
/// so work that stays on the vCPU the scheduler picked measures that vCPU.
class CpuRotation {
 public:
  CpuRotation() {
    CPU_ZERO(&all_);
    if (::sched_getaffinity(0, sizeof(all_), &all_) != 0) return;
    for (int c = 0; c < CPU_SETSIZE; ++c) {
      if (CPU_ISSET(c, &all_)) cpus_.push_back(c);
    }
  }
  ~CpuRotation() { release(); }
  CpuRotation(const CpuRotation&) = delete;
  CpuRotation& operator=(const CpuRotation&) = delete;

  /// CPUs in the rotation (1 when the affinity mask is unreadable).
  std::size_t size() const { return std::max<std::size_t>(1, cpus_.size()); }
  void pin_next() {
    if (cpus_.empty()) return;
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(cpus_[next_++ % cpus_.size()], &one);
    ::sched_setaffinity(0, sizeof(one), &one);
  }
  void release() {
    if (!cpus_.empty()) ::sched_setaffinity(0, sizeof(all_), &all_);
  }

 private:
  cpu_set_t all_;
  std::vector<int> cpus_;
  std::size_t next_ = 0;
};

double time_setup(const Workload& w) {
  const auto t0 = Clock::now();
  rac::Simulation sim(w.des);
  sim.start_uniform_traffic();
  return seconds_since(t0);
}

Episode run_simulation(const Workload& w) {
  Episode e;
  e.kind = "simulation";
  const auto t0 = Clock::now();
  rac::Simulation sim(w.des);
  sim.start_uniform_traffic();
  e.setup_s = seconds_since(t0);
  const double cpu0 = cpu_seconds(CLOCK_PROCESS_CPUTIME_ID);
  const auto t1 = Clock::now();
  sim.run_for(w.horizon);
  e.wall_s = seconds_since(t1);
  e.cpu_s = cpu_seconds(CLOCK_PROCESS_CPUTIME_ID) - cpu0;
  e.events = sim.events_processed();
  e.delivered = sim.delivery_meter().total_messages();
  for (std::size_t i = 0; i < sim.size(); ++i) {
    e.cells += cells_originated(sim.node(i).counters());
  }
  return e;
}

void run_des(const Workload& w, double seconds, bool traced, bool smoke,
             Json& out) {
  const auto start = Clock::now();
  const double sim_s = rac::to_seconds(w.horizon);
  std::vector<Episode> episodes;
  Metrics metrics;
  Metrics layers;
  // Set-ups and unsharded episodes take turns on every CPU. Sharded
  // episodes keep the whole set: shard workers inherit the affinity of the
  // thread that creates them.
  CpuRotation cpus;
  const auto place_episode = [&] {
    if (w.des.shards == 0) {
      cpus.pin_next();
    } else {
      cpus.release();
    }
  };

  if (!traced) {
    // Set-up is timed on every CPU in turn before every episode, so its
    // median samples the whole machine and the whole run. Each CPU gets a
    // batch of back-to-back set-ups: the first one after a move runs on
    // cold caches.
    std::vector<double> setups;
    const std::size_t min_setups = smoke ? 1 : kMinSetups;
    const double budget_s = kSetupBudgetS / static_cast<double>(cpus.size());
    repeat_within(start, seconds, [&] {
      for (std::size_t c = 0; c < cpus.size(); ++c) {
        cpus.pin_next();
        const auto batch = Clock::now();
        for (std::size_t i = 0; i < kMaxSetups; ++i) {
          if (i >= min_setups && seconds_since(batch) >= budget_s) break;
          setups.push_back(time_setup(w));
        }
      }
      place_episode();
      episodes.push_back(run_simulation(w));
    });
    std::vector<double> wall, cpu_cell;
    for (const Episode& e : episodes) {
      setups.push_back(e.setup_s);
      wall.push_back(e.wall_s / sim_s);
      cpu_cell.push_back(ratio(e.cpu_s * 1e6, static_cast<double>(e.cells)));
    }
    metrics["setup_s"] = median(setups);
    metrics["wall_per_sim_s"] = median(wall);
    metrics["cpu_us_per_cell"] = median(cpu_cell);
    metrics["peak_rss_per_node_kib"] = peak_rss_kib() / w.des.num_nodes;
    out.count("setups", setups.size());
  } else {
    std::vector<bench::TwinResult> twins;
    repeat_within(start, seconds, [&] {
      place_episode();  // an episode and its twin share a CPU
      episodes.push_back(run_simulation(w));
      twins.push_back(bench::run_twin(w.des, w.horizon));
      Episode e;
      e.kind = "twin";
      e.wall_s = twins.back().wall_s;
      e.events = twins.back().events;
      e.delivered = twins.back().delivered;
      episodes.push_back(e);
    });
    for (const auto& [name, v] : twins.front().layers) {
      std::vector<double> values;
      for (const bench::TwinResult& t : twins) {
        values.push_back(t.layers.at(name));
      }
      layers[name] = median(values);
    }
    // Onion latencies are simulated time: every twin of a seed agrees.
    std::vector<double> lat = twins.front().onion_latency_ms;
    std::sort(lat.begin(), lat.end());
    add_latency(layers, lat.size(), [&](double q) {
      const auto rank = static_cast<std::size_t>(
          std::ceil(q * static_cast<double>(lat.size())));
      return lat[std::max<std::size_t>(rank, 1) - 1];
    });
    std::vector<double> untraced_wall, twin_wall;
    for (const Episode& e : episodes) {
      (e.kind == "twin" ? twin_wall : untraced_wall).push_back(e.wall_s);
    }
    layers["trace.wall_s"] = median(twin_wall);
    layers["trace.overhead"] = median(twin_wall) / median(untraced_wall) - 1.0;
  }

  std::vector<std::string> items;
  for (const Episode& e : episodes) items.push_back(e.json());
  out.num("sim_s", sim_s).raw("episodes", to_json_array(items));
  if (!metrics.empty()) out.raw("metrics", to_json(metrics));
  if (!layers.empty()) out.raw("layers", to_json(layers));
}

// --- live_n3 -------------------------------------------------------------

struct LiveNode {
  rac::net::Report report;
  std::string error;  // construction failures (run() reports its own)
  double ctor_s = 0;
  double run_wall_s = 0;
  double cpu_s = 0;
  std::uint64_t cells = 0;
  std::uint64_t queued_relays = 0;  // relay duties left when the core stopped

  bool ok() const { return error.empty() && report.ok; }
  std::string json() const {
    return Json()
        .flag("ok", ok())
        .text("error", error.empty() ? report.error : error)
        .count("payloads_sent", report.payloads_sent)
        .count("payloads_delivered", report.payloads_delivered)
        .count("delivered_bytes", report.delivered_bytes)
        .count("queued_relays", queued_relays)
        .count("cells", cells)
        .count("disconnects", report.disconnects)
        .count("frames_dropped", report.frames_dropped)
        .count("accusations", report.accusations)
        .count("evictions", report.evictions)
        .num("duration_s", report.duration_s)
        .num("ctor_s", ctor_s)
        .num("run_wall_s", run_wall_s)
        .num("cpu_s", cpu_s)
        .str();
  }
};

struct LiveMesh {
  std::vector<LiveNode> nodes;
  Metrics latency;

  /// Driver construction plus mesh barrier, slowest node.
  double setup_s() const {
    double worst = 0;
    for (const LiveNode& n : nodes) {
      worst = std::max(worst, n.ctor_s + n.run_wall_s - n.report.duration_s);
    }
    return worst;
  }
};

/// Runs one node. Every node arrives at `done` before its driver closes its
/// sockets, so a node that finishes first is not counted as a disconnect
/// by peers still draining.
void run_live_node(const rac::net::Manifest& manifest, rac::EndpointId self,
                   int listen_fd, LiveNode& out,
                   rac::telemetry::Collector& collector, std::latch& done) {
  const rac::telemetry::Install install(&collector);
  bool arrived = false;
  try {
    const auto t0 = Clock::now();
    std::unique_ptr<rac::net::NodeDriver> driver;
    try {
      driver =
          std::make_unique<rac::net::NodeDriver>(manifest, self, listen_fd);
    } catch (...) {
      ::close(listen_fd);  // only a constructed driver owns it
      throw;
    }
    out.ctor_s = seconds_since(t0);
    driver->set_start_timeout(10 * rac::kSecond);
    const double cpu0 = cpu_seconds(CLOCK_THREAD_CPUTIME_ID);
    const auto t1 = Clock::now();
    out.report = driver->run();
    out.run_wall_s = seconds_since(t1);
    out.cpu_s = cpu_seconds(CLOCK_THREAD_CPUTIME_ID) - cpu0;
    out.cells = cells_originated(driver->core().counters());
    out.queued_relays = driver->core().relay_queue_depth();
    arrived = true;
    done.arrive_and_wait();
  } catch (const std::exception& e) {
    out.error = e.what();
  }
  if (!arrived) done.arrive_and_wait();
}

LiveMesh run_live_mesh(std::uint64_t seed, SimDuration duration) {
  rac::net::Manifest m = live_manifest(seed, duration);
  std::vector<int> fds;
  try {
    for (std::size_t i = 0; i < kLiveNodes; ++i) {
      std::uint16_t port = 0;
      fds.push_back(rac::net::listen_tcp("127.0.0.1", port));
      m.peers.push_back({static_cast<rac::EndpointId>(i), "127.0.0.1", port});
    }
  } catch (...) {
    for (const int fd : fds) ::close(fd);
    throw;
  }

  LiveMesh mesh;
  mesh.nodes.resize(kLiveNodes);
  std::vector<std::unique_ptr<rac::telemetry::Collector>> collectors;
  for (std::size_t i = 0; i < kLiveNodes; ++i) {
    collectors.push_back(std::make_unique<rac::telemetry::Collector>());
  }
  {
    std::latch done(kLiveNodes);
    std::vector<std::jthread> threads;
    try {
      for (std::size_t i = 0; i < kLiveNodes; ++i) {
        threads.emplace_back(run_live_node, std::cref(m),
                             static_cast<rac::EndpointId>(i), fds[i],
                             std::ref(mesh.nodes[i]), std::ref(*collectors[i]),
                             std::ref(done));
      }
    } catch (...) {
      // Release the started nodes; the jthreads join on the way out.
      done.count_down(static_cast<std::ptrdiff_t>(kLiveNodes - threads.size()));
      for (std::size_t i = threads.size(); i < kLiveNodes; ++i) ::close(fds[i]);
      throw;
    }
  }
  rac::telemetry::Histogram onion_us;
  for (const auto& c : collectors) {
    onion_us.merge(c->registry().histogram(
        rac::telemetry::Hist::kNodeOnionLatencyUs));
  }
  add_latency(mesh.latency, onion_us.count(), [&](double q) {
    return static_cast<double>(onion_us.percentile(q)) / 1e3;
  });
  return mesh;
}

void run_live(std::uint64_t seed, double seconds, Json& out) {
  std::vector<double> setups;
  std::vector<std::string> setup_items;
  for (int r = 0; r < kLiveSetupMeshes; ++r) {
    const LiveMesh mesh = run_live_mesh(seed, 1 * kMillisecond);
    bool ok = true;
    for (const LiveNode& n : mesh.nodes) ok = ok && n.ok();
    setups.push_back(mesh.setup_s());
    setup_items.push_back(
        Json().flag("ok", ok).num("setup_s", setups.back()).str());
  }
  const SimDuration duration = rac::from_seconds(seconds);
  const LiveMesh mesh = run_live_mesh(seed, duration);
  setups.push_back(mesh.setup_s());

  const double duration_s = rac::to_seconds(duration);
  const double nominal_slots = duration_s / rac::to_seconds(kLivePeriod);
  double cells = 0, cpu = 0, util = 0, dropped = 0, bytes = 0, wall = 0;
  std::vector<std::string> items;
  for (const LiveNode& n : mesh.nodes) {
    cells += static_cast<double>(n.cells);
    cpu += n.cpu_s;
    util += ratio(n.cpu_s, n.run_wall_s) / kLiveNodes;
    dropped += static_cast<double>(n.report.frames_dropped);
    bytes += static_cast<double>(n.report.delivered_bytes);
    wall = std::max(wall, n.run_wall_s);
    items.push_back(n.json());
  }
  // Protocol time actually covered: send slots fired times the period. The
  // generator re-arms after each slot, so a loaded loop covers less.
  const double protocol_s =
      cells / kLiveNodes * rac::to_seconds(kLivePeriod);
  Metrics metrics;
  metrics["setup_s"] = median(setups);
  metrics["wall_per_sim_s"] = ratio(duration_s, protocol_s);
  metrics["cpu_us_per_cell"] = ratio(cpu * 1e6, cells);
  metrics["peak_rss_per_node_kib"] = peak_rss_kib() / kLiveNodes;

  Metrics layers = mesh.latency;
  layers["live.node_cpu_util"] = util;
  layers["live.slot_rate_ratio"] = ratio(cells / kLiveNodes, nominal_slots);
  layers["live.frames_dropped"] = dropped;
  layers["live.goodput_kbps"] = ratio(bytes * 8 / kLiveNodes, duration_s) / 1e3;
  layers["trace.wall_s"] = wall;

  out.num("duration_s", duration_s)
      .raw("setup_meshes", to_json_array(setup_items))
      .raw("nodes", to_json_array(items))
      .raw("metrics", to_json(metrics))
      .raw("layers", to_json(layers));
}

int usage() {
  std::fprintf(stderr,
               "usage: rac_bench <fig3_n100|groups_n1000_k4|crypto_n32|live_n3>"
               " --seed S [--seconds T] [--trace] [--smoke]\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return usage();
  std::uint64_t seed = 42;
  double seconds = 20;
  bool traced = false;
  bool smoke = false;
  try {
    for (int i = 2; i < argc; ++i) {
      const std::string arg = argv[i];
      if (arg == "--seed" && i + 1 < argc) {
        seed = std::stoull(argv[++i]);
      } else if (arg == "--seconds" && i + 1 < argc) {
        seconds = std::stod(argv[++i]);
      } else if (arg == "--trace") {
        traced = true;
      } else if (arg == "--smoke") {
        smoke = true;
      } else {
        return usage();
      }
    }
    const Workload w = make_workload(argv[1], seed, smoke);
    const std::string config = describe(w);
    Json out;
    out.text("workload", w.name)
        .count("seed", seed)
        .flag("traced", traced)
        .flag("smoke", smoke)
        .text("config", config)
        .text("config_hash", fnv1a_hex(config))
        .text("build_type", RAC_BENCH_BUILD_TYPE)
        .flag("telemetry", RAC_TELEMETRY_ENABLED != 0)
        .text("compiler", RAC_BENCH_COMPILER)
        .count("hw_threads", std::thread::hardware_concurrency());
    if (w.live) {
      run_live(seed, seconds, out);
    } else {
      run_des(w, seconds, traced, smoke, out);
    }
    std::printf("%s\n", out.str().c_str());
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "rac_bench: %s\n", e.what());
    return 1;
  }
}
