#include "twin.hpp"

#include <pthread.h>
#include <time.h>

#include <algorithm>
#include <array>
#include <chrono>
#include <stdexcept>
#include <unordered_map>

#include "crypto/puzzle.hpp"
#include "rac/des_driver.hpp"
#include "rac/wire.hpp"

namespace bench {

namespace {

using rac::EndpointId;
using rac::SimDuration;
using rac::SimTime;

enum Layer : std::size_t {
  kOnMessage,
  kOnTimer,
  kTransmit,
  kOpen,
  kSeal,
  kKeygen,
  kNumLayers
};

/// What one shard's thread spent per layer. Shard threads only ever touch
/// their own tally; alignas keeps tallies off each other's cache lines.
struct alignas(64) Tally {
  std::array<std::int64_t, kNumLayers> self_ns{};
  std::array<std::uint64_t, kNumLayers> calls{};
  std::int64_t top_ns = 0;  // inside outermost spans, i.e. all callbacks
  std::uint64_t open_hits = 0;
  std::uint64_t forwarding_receipts = 0;  // on_message calls that transmitted
  std::uint64_t noop_timers = 0;  // on_timer calls with no send and no crypto
  std::vector<double> onion_latency_ms;
  pthread_t thread{};
  bool has_thread = false;
};

// The span nesting stack of the calling thread: tl_child[d] accumulates the
// duration of the finished children of the open span at depth d.
thread_local Tally* tl_tally = nullptr;
constexpr int kMaxDepth = 8;
thread_local std::array<std::int64_t, kMaxDepth + 1> tl_child{};
thread_local int tl_depth = 0;

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double cpu_seconds(clockid_t clock) {
  timespec ts{};
  if (::clock_gettime(clock, &ts) != 0) return 0.0;
  return static_cast<double>(ts.tv_sec) +
         static_cast<double>(ts.tv_nsec) * 1e-9;
}

class Span {
 public:
  explicit Span(Layer layer) : layer_(layer) {
    if (tl_tally == nullptr || tl_depth == kMaxDepth) {
      throw std::logic_error("twin: span outside a tallied callback");
    }
    tl_child[static_cast<std::size_t>(++tl_depth)] = 0;
    start_ = now_ns();
  }
  ~Span() {
    const std::int64_t dur = now_ns() - start_;
    Tally& t = *tl_tally;
    t.self_ns[layer_] += dur - tl_child[static_cast<std::size_t>(tl_depth)];
    ++t.calls[layer_];
    --tl_depth;
    tl_child[static_cast<std::size_t>(tl_depth)] += dur;
    if (tl_depth == 0) t.top_ns += dur;
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  Layer layer_;
  std::int64_t start_ = 0;
};

class TracedProvider final : public rac::CryptoProvider {
 public:
  explicit TracedProvider(std::unique_ptr<rac::CryptoProvider> inner)
      : inner_(std::move(inner)) {}

  rac::KeyPair generate_keypair(rac::Rng& rng) const override {
    const Span span(kKeygen);
    return inner_->generate_keypair(rng);
  }
  rac::Bytes seal(const rac::PublicKey& to, rac::ByteView plaintext,
                  rac::Rng& rng) const override {
    const Span span(kSeal);
    return inner_->seal(to, plaintext, rng);
  }
  std::optional<rac::Bytes> open(const rac::KeyPair& kp,
                                 rac::ByteView box) const override {
    const Span span(kOpen);
    std::optional<rac::Bytes> out = inner_->open(kp, box);
    if (out) ++tl_tally->open_hits;
    return out;
  }
  std::size_t seal_overhead() const override { return inner_->seal_overhead(); }
  std::string name() const override { return inner_->name(); }

 private:
  std::unique_ptr<rac::CryptoProvider> inner_;
};

/// DesDriver plus timing. Binds itself as the DesDriver's timer sink so
/// every timer firing passes through on_timer on its way to the core.
class TracedDriver final : public rac::Driver, public rac::TimerSink {
 public:
  TracedDriver(rac::sim::Simulator& engine, rac::sim::Network& network,
               EndpointId self, Tally& tally)
      : inner_(engine, network, self), tally_(tally) {}
  TracedDriver(const TracedDriver&) = delete;
  TracedDriver& operator=(const TracedDriver&) = delete;

  void attach(rac::Core* core) { core_ = core; }

  SimTime now() const override { return inner_.now(); }
  void transmit(EndpointId to, const rac::Payload& wire) override {
    const Span span(kTransmit);
    inner_.transmit(to, wire);
  }
  void arm_timer(SimDuration delay, rac::Timer t) override {
    inner_.arm_timer(delay, t);
  }
  SimTime uplink_busy_until() const override {
    return inner_.uplink_busy_until();
  }
  void bind(rac::TimerSink* sink) override {
    sink_ = sink;
    inner_.bind(this);
  }

  void on_timer(rac::Timer t) override {
    enter();
    const std::uint64_t work = work_done();
    {
      const Span span(kOnTimer);
      sink_->on_timer(t);
    }
    if (work_done() == work) ++tally_.noop_timers;
    note_onion_completions();
  }

  void on_message(EndpointId from, const rac::Payload& msg) {
    enter();
    const std::uint64_t sends = tally_.calls[kTransmit];
    {
      const Span span(kOnMessage);
      core_->on_message(from, msg);
    }
    if (tally_.calls[kTransmit] != sends) ++tally_.forwarding_receipts;
    note_onion_completions();
  }

 private:
  std::uint64_t work_done() const {
    return tally_.calls[kTransmit] + tally_.calls[kSeal] + tally_.calls[kOpen];
  }
  void enter() {
    tl_tally = &tally_;
    if (!tally_.has_thread) {
      tally_.thread = pthread_self();
      tally_.has_thread = true;
    }
  }
  /// Core::onion_latency() is the public record of completed onions; each
  /// new sample is recovered from the aggregate's running sum.
  void note_onion_completions() {
    const rac::sim::Aggregate& lat = core_->onion_latency();
    if (lat.count() == seen_) return;
    const double sum = lat.mean() * static_cast<double>(lat.count());
    const double each =
        (sum - seen_sum_) / static_cast<double>(lat.count() - seen_);
    for (; seen_ < lat.count(); ++seen_) {
      tally_.onion_latency_ms.push_back(each * 1e3);
    }
    seen_sum_ = sum;
  }

  rac::DesDriver inner_;
  Tally& tally_;
  rac::TimerSink* sink_ = nullptr;
  rac::Core* core_ = nullptr;
  std::uint64_t seen_ = 0;
  double seen_sum_ = 0;
};

/// rac::Simulation's constructor, start_uniform_traffic() and run_for(),
/// replayed step for step (same RNG draws, containers and barrier order).
class Twin {
 public:
  explicit Twin(const rac::SimulationConfig& config);
  Twin(const Twin&) = delete;
  Twin& operator=(const Twin&) = delete;

  void run_for(SimDuration d);
  TwinResult result(double wall_s, double setup_s) const;

 private:
  rac::sim::Simulator* engine_of(EndpointId ep) {
    if (shard_engines_.empty()) return &sim_;
    return shard_engines_[ep % shard_engines_.size()].get();
  }
  rac::sim::ThroughputMeter* meter_of(EndpointId ep) {
    if (shard_meters_.empty()) return &meter_;
    return &shard_meters_[ep % shard_meters_.size()];
  }
  void run_window(SimTime t, bool inclusive);

  rac::SimulationConfig config_;
  rac::sim::Simulator sim_;
  TracedProvider crypto_;
  std::unique_ptr<rac::sim::Network> net_;
  Tally setup_tally_;
  std::vector<Tally> tallies_;  // one per shard (one when unsharded)
  std::vector<std::unique_ptr<TracedDriver>> drivers_;
  std::vector<std::unique_ptr<rac::Core>> nodes_;
  std::vector<std::unique_ptr<rac::overlay::View>> group_views_;
  std::unordered_map<std::uint32_t, std::unique_ptr<rac::overlay::View>>
      channel_views_;
  rac::sim::ThroughputMeter meter_;
  std::vector<std::unique_ptr<rac::sim::Simulator>> shard_engines_;
  std::unique_ptr<rac::sim::ShardGroup> shard_group_;
  std::vector<rac::sim::ThroughputMeter> shard_meters_;
  std::int64_t barrier_ns_ = 0;
  std::uint64_t windows_ = 0;
};

Twin::Twin(const rac::SimulationConfig& config)
    : config_(config),
      sim_(config.seed),
      crypto_(rac::make_provider(config.provider)) {
  tl_tally = &setup_tally_;
  config_.node.link_bps = config_.network.link_bps;
  net_ = std::make_unique<rac::sim::Network>(sim_, config_.network);

  if (config_.shards > 0) {
    std::vector<rac::sim::Simulator*> raw;
    raw.reserve(config_.shards);
    for (unsigned k = 0; k < config_.shards; ++k) {
      shard_engines_.push_back(std::make_unique<rac::sim::Simulator>(
          rac::substream_seed(config_.seed, std::uint64_t{k} + 1)));
      shard_engines_.back()->set_internal_telemetry(false);
      raw.push_back(shard_engines_.back().get());
    }
    net_->enable_sharding(raw);
    shard_meters_.resize(config_.shards);
    shard_group_ = std::make_unique<rac::sim::ShardGroup>(std::move(raw));
  }
  tallies_ = std::vector<Tally>(std::max(1u, config_.shards));

  const std::uint32_t n = config_.num_nodes;
  if (n == 0) throw std::invalid_argument("twin: num_nodes == 0");
  const std::uint32_t num_groups =
      config_.group_target == 0
          ? 1
          : std::max<std::uint32_t>(1, n / config_.group_target);

  for (std::uint32_t i = 0; i < n; ++i) {
    const EndpointId ep = net_->add_endpoint(
        [this, i](EndpointId from, const rac::Payload& msg) {
          drivers_[i]->on_message(from, msg);
        });
    if (ep != i) throw std::logic_error("twin: endpoint id mismatch");
  }
  for (std::uint32_t g = 0; g < num_groups; ++g) {
    group_views_.push_back(
        std::make_unique<rac::overlay::View>(config_.node.num_rings));
  }

  rac::Rng boot(sim_.rng().next());
  for (std::uint32_t i = 0; i < n; ++i) {
    const std::uint64_t ident = boot.next();
    const std::uint32_t group = rac::group_of_ident(ident, num_groups);
    drivers_.push_back(std::make_unique<TracedDriver>(
        *engine_of(i), *net_, i, tallies_[i % tallies_.size()]));
    const rac::Core::Env env{drivers_.back().get(), &crypto_};
    nodes_.push_back(
        std::make_unique<rac::Core>(env, config_.node, i, ident, group));
    drivers_.back()->attach(nodes_.back().get());
    group_views_[group]->add(i, ident);
  }

  for (std::uint32_t a = 0; a < num_groups; ++a) {
    for (std::uint32_t b = a + 1; b < num_groups; ++b) {
      auto view = std::make_unique<rac::overlay::View>(config_.node.num_rings);
      for (const auto& [ep, ident] : group_views_[a]->members()) {
        view->add(ep, ident);
      }
      for (const auto& [ep, ident] : group_views_[b]->members()) {
        view->add(ep, ident);
      }
      channel_views_.emplace(rac::channel_id(a, b), std::move(view));
    }
  }

  for (auto& node : nodes_) {
    node->attach_group_view(group_views_[node->group()].get());
    for (const auto& [ch, view] : channel_views_) {
      const auto [a, b] = rac::channel_groups(ch);
      if (node->group() == a || node->group() == b) {
        node->attach_channel_view(ch, view.get());
      }
    }
    node->set_id_pub_resolver(
        [this](EndpointId ep) { return nodes_.at(ep)->id_keys().pub; });
    node->set_evict_callback([](rac::ScopeId, EndpointId) {
      throw std::logic_error(
          "twin: eviction requested; run the workload with checks off");
    });
  }

  // start_uniform_traffic(): one fixed random destination per sender.
  rac::Rng pick(sim_.rng().next());
  for (std::size_t i = 0; i < nodes_.size(); ++i) {
    std::size_t dest;
    do {
      dest = pick.next_below(nodes_.size());
    } while (dest == i);
    const rac::Core::Destination d{nodes_[dest]->pseudonym_keys().pub,
                                   nodes_[dest]->group()};
    nodes_[i]->set_traffic_generator([d] { return d; });
    rac::sim::Simulator* eng = engine_of(static_cast<EndpointId>(dest));
    rac::sim::ThroughputMeter* meter = meter_of(static_cast<EndpointId>(dest));
    nodes_[dest]->set_deliver_callback([eng, meter](rac::Bytes payload) {
      meter->record(eng->now(), payload.size());
    });
  }
  for (auto& node : nodes_) node->start();
}

void Twin::run_for(SimDuration d) {
  if (shard_group_ == nullptr) {
    sim_.run_for(d);
    return;
  }
  const SimTime end = rac::time_add_sat(sim_.now(), d);
  net_->refresh_lookahead();
  const SimDuration window = net_->lookahead();
  for (;;) {
    const SimTime next = (sim_.now() / window + 1) * window;
    if (next > end) break;
    run_window(next, /*inclusive=*/false);
  }
  run_window(end, /*inclusive=*/true);
}

void Twin::run_window(SimTime t, bool inclusive) {
  const std::int64_t t0 = now_ns();
  for (const auto& v : group_views_) v->prime();
  for (const auto& [channel, v] : channel_views_) v->prime();
  const std::int64_t t1 = now_ns();
  shard_group_->run_all_until(t, inclusive);
  const std::int64_t t2 = now_ns();
  sim_.run_until(t);
  for (rac::sim::ThroughputMeter& m : shard_meters_) m.drain_into(meter_);
  net_->drain_mailboxes();
  barrier_ns_ += (t1 - t0) + (now_ns() - t2);
  ++windows_;
}

TwinResult Twin::result(double wall_s, double setup_s) const {
  TwinResult r;
  r.events = sim_.events_processed();
  for (const auto& e : shard_engines_) r.events += e->events_processed();
  r.delivered = meter_.total_messages();
  r.wall_s = wall_s;

  Tally sum;
  std::vector<double> top_s;
  for (const Tally& t : tallies_) {
    for (std::size_t l = 0; l < kNumLayers; ++l) {
      sum.self_ns[l] += t.self_ns[l];
      sum.calls[l] += t.calls[l];
    }
    sum.open_hits += t.open_hits;
    sum.forwarding_receipts += t.forwarding_receipts;
    sum.noop_timers += t.noop_timers;
    r.onion_latency_ms.insert(r.onion_latency_ms.end(),
                              t.onion_latency_ms.begin(),
                              t.onion_latency_ms.end());
    top_s.push_back(static_cast<double>(t.top_ns) * 1e-9);
  }

  // Busy thread time: the one thread's wall time when unsharded; the shard
  // workers' CPU time plus the coordinator's barriers when sharded. The
  // engine is what remains of it outside every timed callback.
  const double barrier_s = static_cast<double>(barrier_ns_) * 1e-9;
  double busy_s = wall_s;
  double engine_s = wall_s - top_s[0];
  if (shard_group_ != nullptr) {
    busy_s = barrier_s;
    engine_s = 0;
    for (std::size_t k = 0; k < tallies_.size(); ++k) {
      clockid_t clock{};
      double cpu = 0;
      if (tallies_[k].has_thread &&
          pthread_getcpuclockid(tallies_[k].thread, &clock) == 0) {
        cpu = cpu_seconds(clock);
      }
      busy_s += cpu;
      engine_s += std::max(0.0, cpu - top_s[k]);
    }
  }
  const auto s = [&](Layer l) {
    return static_cast<double>(sum.self_ns[l]) * 1e-9;
  };
  const auto per = [](double num, double den) {
    return den > 0 ? num / den : 0.0;
  };
  const auto pct = [&](double x) { return per(100.0 * x, busy_s); };
  const auto calls = [&](Layer l) { return static_cast<double>(sum.calls[l]); };
  const auto ns_per_call = [&](Layer l) { return per(s(l) * 1e9, calls(l)); };
  double top_max = 0;
  double top_mean = 0;
  for (const double t : top_s) {
    top_max = std::max(top_max, t);
    top_mean += t / static_cast<double>(top_s.size());
  }

  auto& m = r.layers;
  m["rac.core.on_message.self_pct"] = pct(s(kOnMessage));
  m["rac.core.on_message.calls"] = calls(kOnMessage);
  m["rac.core.on_message.ns_per_call"] = ns_per_call(kOnMessage);
  m["rac.core.on_message.forward_ratio"] =
      per(static_cast<double>(sum.forwarding_receipts), calls(kOnMessage));
  m["rac.core.on_timer.self_pct"] = pct(s(kOnTimer));
  m["rac.core.on_timer.calls"] = calls(kOnTimer);
  m["rac.core.on_timer.noop_ratio"] =
      per(static_cast<double>(sum.noop_timers), calls(kOnTimer));
  m["sim.engine.self_pct"] = pct(engine_s);
  m["sim.engine.events"] = static_cast<double>(r.events);
  m["sim.engine.ns_per_event"] =
      per(engine_s * 1e9, static_cast<double>(r.events));
  m["sim.network.send_pct"] = pct(s(kTransmit));
  m["sim.network.sends"] = calls(kTransmit);
  m["sim.network.ns_per_send"] = ns_per_call(kTransmit);
  m["crypto.open_pct"] = pct(s(kOpen));
  m["crypto.opens"] = calls(kOpen);
  m["crypto.open_hit_ratio"] =
      per(static_cast<double>(sum.open_hits), calls(kOpen));
  m["crypto.ns_per_open"] = ns_per_call(kOpen);
  m["crypto.seal_pct"] = pct(s(kSeal));
  m["crypto.seals"] = calls(kSeal);
  m["crypto.keygen_setup_pct"] =
      per(100.0 * static_cast<double>(setup_tally_.self_ns[kKeygen]) * 1e-9,
          setup_s);
  m["shard.barrier_pct"] = shard_group_ != nullptr ? pct(barrier_s) : 0.0;
  m["shard.windows"] = static_cast<double>(windows_);
  m["shard.imbalance"] = per(top_max, top_mean);
  m["shard.parallelism"] = per(busy_s, wall_s);
  return r;
}

}  // namespace

TwinResult run_twin(const rac::SimulationConfig& config,
                    rac::SimDuration horizon) {
  const std::int64_t t0 = now_ns();
  Twin twin(config);
  const std::int64_t t1 = now_ns();
  twin.run_for(horizon);
  const std::int64_t t2 = now_ns();
  TwinResult r = twin.result(static_cast<double>(t2 - t1) * 1e-9,
                             static_cast<double>(t1 - t0) * 1e-9);
  tl_tally = nullptr;  // the tallies die with the twin
  return r;
}

}  // namespace bench
