#include "harness.hpp"

#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <fstream>
#include <functional>
#include <numeric>
#include <optional>
#include <set>
#include <stdexcept>

#include "analysis/verifier.hpp"
#include "attack/fgsm.hpp"
#include "core/pipeline.hpp"
#include "common/rng.hpp"
#include "hpc/events.hpp"
#include "nn/conv2d.hpp"
#include "nn/serialize.hpp"
#include "nn/trainer.hpp"
#include "tensor/im2col.hpp"
#include "tensor/matmul.hpp"
#include "uarch/trace_gen.hpp"

extern char** environ;

namespace perfbench {

using namespace advh;

namespace {

std::uint64_t parse_u64(const std::string& flag, const std::string& v) {
  std::size_t used = 0;
  const unsigned long long n = std::stoull(v, &used);
  if (used != v.size()) throw std::invalid_argument(flag + ": not an integer");
  return n;
}

double parse_positive(const std::string& flag, const std::string& v) {
  std::size_t used = 0;
  const double d = std::stod(v, &used);
  if (used != v.size() || !(d > 0.0) || !std::isfinite(d)) {
    throw std::invalid_argument(flag + ": expected a positive number");
  }
  return d;
}

}  // namespace

options parse_options(int argc, char** argv) {
  options o;
  std::set<std::string> seen;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) throw std::invalid_argument(flag + ": missing value");
    const std::string v = argv[++i];
    seen.insert(flag);
    if (flag == "--workload") {
      o.workload = v;
    } else if (flag == "--seed") {
      o.seed = parse_u64(flag, v);
    } else if (flag == "--seconds") {
      o.seconds = parse_positive(flag, v);
    } else if (flag == "--trace") {
      if (v != "0" && v != "1") throw std::invalid_argument("--trace: 0 or 1");
      o.trace = v == "1";
    } else if (flag == "--models") {
      o.models_dir = v;
    } else if (flag == "--golden") {
      o.golden = v;
    } else if (flag == "--trace-out") {
      o.trace_out = v;
    } else if (flag == "--light-rate") {
      o.light_rate = parse_positive(flag, v);
    } else if (flag == "--overload-rate") {
      o.overload_rate = parse_positive(flag, v);
    } else if (flag == "--calibrate-threads") {
      o.calibrate_threads = parse_u64(flag, v);
    } else {
      throw std::invalid_argument("unknown flag " + flag);
    }
  }
  std::vector<const char*> required = {"--workload", "--seed",   "--seconds",
                                       "--trace",    "--models", "--golden"};
  if (o.workload == "serve_s1") {
    required.insert(required.end(), {"--light-rate", "--overload-rate"});
  } else if (o.workload == "calibrate_s3") {
    required.push_back("--calibrate-threads");
  }
  for (const char* flag : required) {
    if (seen.count(flag) == 0) {
      throw std::invalid_argument(std::string(flag) + " is required");
    }
  }
  if (o.workload == "calibrate_s3" && o.calibrate_threads == 0) {
    throw std::invalid_argument("--calibrate-threads: at least 1");
  }
  return o;
}

void refuse_advh_environment() {
  for (char** e = environ; e != nullptr && *e != nullptr; ++e) {
    if (std::strncmp(*e, "ADVH_", 5) == 0) {
      const std::string var(*e, std::strcspn(*e, "="));
      throw std::runtime_error(var +
                               " is set; the benchmark runs with every ADVH_* "
                               "knob unset so that it measures the defaults");
    }
  }
}

double now_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// --------------------------------------------------------------- cpu rotor

cpu_rotor::cpu_rotor(std::size_t offset) : offset_(offset) {
  // Read once, before any rotor pins a thread: a thread started by a pinned
  // one inherits its single CPU.
  static const std::vector<int> allowed = [] {
    std::vector<int> cpus;
    cpu_set_t mask;
    CPU_ZERO(&mask);
    if (sched_getaffinity(0, sizeof mask, &mask) == 0) {
      for (int c = 0; c < CPU_SETSIZE; ++c) {
        if (CPU_ISSET(c, &mask)) cpus.push_back(c);
      }
    }
    return cpus;
  }();
  cpus_ = allowed;
}

void cpu_rotor::follow(std::size_t width) {
  if (cpus_.size() < 2) return;
  const auto step = static_cast<long>(now_s() / kRotateSeconds);
  width = std::clamp<std::size_t>(width, 1, cpus_.size());
  if (step == step_ && width == width_) return;
  step_ = step;
  width_ = width;
  cpu_set_t mask;
  CPU_ZERO(&mask);
  const auto first = static_cast<std::size_t>(step) + offset_;
  for (std::size_t k = 0; k < width; ++k) {
    CPU_SET(cpus_[(first + k) % cpus_.size()], &mask);
  }
  // Best effort: where pinning is refused, the scheduler places the thread.
  (void)sched_setaffinity(0, sizeof mask, &mask);
}

// ------------------------------------------------------------------ tracer

tracer::tracer(bool on) : on_(on), epoch_(std::chrono::steady_clock::now()) {}

long tracer::begin(const char* name, std::uint64_t id,
                   std::chrono::steady_clock::time_point t, long parent) {
  const std::int64_t start =
      std::chrono::duration_cast<std::chrono::nanoseconds>(t - epoch_).count();
  std::lock_guard<std::mutex> lock(mutex_);
  spans_.push_back({name, id, start, 0, parent});
  return static_cast<long>(spans_.size() - 1);
}

void tracer::end(long idx, std::chrono::steady_clock::time_point t) {
  const std::int64_t stop =
      std::chrono::duration_cast<std::chrono::nanoseconds>(t - epoch_).count();
  std::lock_guard<std::mutex> lock(mutex_);
  spans_[static_cast<std::size_t>(idx)].end_ns = stop;
}

void tracer::write(const std::string& path) const {
  std::ofstream out(path);
  if (!out) throw std::runtime_error("cannot write " + path);
  for (const span& s : spans_) {
    out << "{\"name\":\"" << s.name << "\",\"id\":" << s.id
        << ",\"start_ns\":" << s.start_ns << ",\"end_ns\":" << s.end_ns
        << ",\"parent\":" << s.parent << "}\n";
  }
}

// ----------------------------------------------------------------- samples

const std::vector<double>& samples::get(const std::string& name) const {
  static const std::vector<double> empty;
  const auto it = data_.find(name);
  return it == data_.end() ? empty : it->second;
}

double samples::median(const std::string& name) const {
  return quantile(get(name), 0.5);
}

double samples::mean(const std::string& name) const {
  const auto& v = get(name);
  return v.empty() ? 0.0 : sum(name) / static_cast<double>(v.size());
}

double samples::sum(const std::string& name) const {
  const auto& v = get(name);
  return std::accumulate(v.begin(), v.end(), 0.0);
}

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

// ------------------------------------------------------------------ digest

void digest::add_u64(std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    h_ ^= (v >> (8 * i)) & 0xffU;
    h_ *= 0x100000001b3ULL;
  }
}

void digest::add_f64(double v) {
  std::uint64_t bits = 0;
  std::memcpy(&bits, &v, sizeof bits);
  add_u64(bits);
}

std::string digest::hex() const {
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx",
                static_cast<unsigned long long>(h_));
  return buf;
}

void check_golden(const options& opt, const std::string& got, result& r) {
  std::ifstream in(opt.golden);
  std::string name, want;
  while (in >> name >> want && name != opt.workload) want.clear();
  if (want != got) {
    r.fail("golden digest mismatch: got " + got + ", want " +
           (want.empty() ? "<none>" : want));
  }
  r.golden_digest = got;
}

double peak_rss_mb() {
  rusage u{};
  getrusage(RUSAGE_SELF, &u);
  return static_cast<double>(u.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB
}

// ---------------------------------------------------------------- scenario

scenario load_scenario(data::scenario_id id, const options& opt, tracer& tr,
                       samples& s) {
  constexpr std::size_t kAccuracyImages = 100;
  scenario sc;
  sc.spec = data::get_scenario(id);
  data::dataset test;
  s.add("data.synthesize_s", tr.time("data.synthesize", 0, [&] {
    auto test_spec = sc.spec.dataset_spec;
    test_spec.sample_seed = 1;  // the test stream prepare_scenario draws
    test = data::make_synthetic(test_spec, sc.spec.test_per_class);
    auto halves = data::stratified_split(test, 0.5, 7);
    sc.calib = std::move(halves.first);
    sc.queries = std::move(halves.second);
  }));
  sc.net = nn::make_model(sc.spec.arch, test.example_shape(), test.num_classes,
                          1234);
  s.add("analysis.verify_s", tr.time("analysis.verify", 0, [&] {
    analysis::ensure_verified(*sc.net, sc.spec.label);
  }));
  const std::string path = opt.models_dir + "/" + sc.spec.label + "_" +
                           nn::to_string(sc.spec.arch) + ".advh";
  if (!nn::is_state_file(path)) {
    throw std::runtime_error("model cache " + path +
                             " is missing; the benchmark never retrains");
  }
  s.add("nn.load_state_s", tr.time("nn.load_state", 0, [&] {
    nn::load_state(*sc.net, path, true);
  }));
  s.add("nn.accuracy_s", tr.time("nn.accuracy", 0, [&] {
    std::vector<std::size_t> idx(std::min(kAccuracyImages, sc.queries.size()));
    std::iota(idx.begin(), idx.end(), 0);
    const auto sub = data::subset(sc.queries, idx);
    (void)sc.net->accuracy(sub.images, sub.labels);
  }));
  return sc;
}

void add_clean(query_set& out, nn::model& net, const data::dataset& d,
               std::size_t per_class, std::uint64_t seed) {
  rng gen(seed);
  for (std::size_t cls = 0; cls < d.num_classes; ++cls) {
    auto pool = d.indices_of_class(cls);
    gen.shuffle(pool);
    std::size_t taken = 0;
    for (std::size_t i : pool) {
      if (taken == per_class) break;
      tensor x = nn::single_example(d.images, i);
      if (net.predict_one(x) != cls) continue;
      out.add(std::move(x), cls, false);
      ++taken;
    }
  }
}

void add_targeted_aes(query_set& out, const scenario& sc, std::size_t count,
                      std::uint64_t seed) {
  auto spec = sc.spec.dataset_spec;
  spec.sample_seed = 1000 + seed;  // disjoint from train (0) and test (1)
  const std::size_t per_class =
      std::max<std::size_t>(2, 3 * count / spec.classes + 2);
  const auto pool = data::make_synthetic(spec, per_class);
  attack::attack_config cfg;
  cfg.goal = attack::attack_goal::targeted;
  cfg.target_class = sc.spec.target_class;
  cfg.epsilon = 0.1f;
  attack::fgsm atk(cfg);
  std::size_t made = 0;
  for (std::size_t i : rng(seed ^ 0xae5ULL).permutation(pool.size())) {
    if (made == count) break;
    const std::size_t label = pool.labels[i];
    if (label == sc.spec.target_class) continue;
    tensor x = nn::single_example(pool.images, i);
    if (sc.net->predict_one(x) != label) continue;
    auto r = atk.run(*sc.net, x, label);
    if (!r.success) continue;
    out.add(std::move(r.adversarial), r.adversarial_prediction, true);
    ++made;
  }
}

hpc::monitor_ptr sim_monitor(nn::model& net, std::uint64_t noise_seed) {
  hpc::monitor_options mo;
  mo.kind = hpc::backend_kind::simulator;
  mo.noise_seed = noise_seed;
  return hpc::make_monitor(net, mo);
}

// ----------------------------------------------------- counting monitor

hpc::measurement counting_monitor::do_measure(
    const tensor& x, std::span<const hpc::hpc_event> events,
    std::size_t repeats) {
  return inner_.measure(x, events, repeats);
}

std::vector<hpc::measurement> counting_monitor::do_measure_batch(
    std::span<const tensor> inputs, std::span<const hpc::hpc_event> events,
    std::size_t repeats, std::size_t threads) {
  const double t0 = now_s();
  auto out = inner_.measure_batch(inputs, events, repeats, threads);
  batch_seconds += now_s() - t0;
  rows += inputs.size();
  return out;
}

// -------------------------------------------------------------- calibrate

calibration calibrate(hpc::hpc_monitor& monitor,
                      const core::detector_config& cfg,
                      const data::dataset& d, std::size_t per_class,
                      std::uint64_t seed, std::size_t threads, tracer& tr,
                      samples& s, digest* dg) {
  counting_monitor counted(monitor);
  std::optional<core::benign_template> tpl;
  std::optional<core::detector> det;
  const double t_tpl = tr.time("core.collect_template", seed, [&] {
    tpl.emplace(
        core::collect_template(counted, cfg, d, per_class, seed, threads));
  });
  const double t_fit = tr.time("core.fit", seed, [&] {
    det.emplace(core::detector::fit(*tpl, cfg, threads));
  });
  calibration c{std::move(*det), t_tpl + t_fit};
  std::size_t accepted = 0;
  for (std::size_t cls = 0; cls < tpl->num_classes(); ++cls) {
    accepted += tpl->rows(cls);
  }
  const double cells =
      static_cast<double>(tpl->num_classes() * cfg.events.size());
  s.add("core.collect_template_s", t_tpl);
  s.add("core.fit_s", t_fit);
  s.add("gmm.fit_ms_per_cell", 1e3 * t_fit / cells);
  s.add("core.template_accept_share",
        static_cast<double>(accepted) /
            static_cast<double>(std::max<std::size_t>(counted.rows, 1)));
  if (counted.batch_seconds > 0) {
    s.add("hpc.batch_rows_per_s",
          static_cast<double>(counted.rows) / counted.batch_seconds);
  }
  if (dg != nullptr) {
    for (std::size_t cls = 0; cls < tpl->num_classes(); ++cls) {
      for (std::size_t e = 0; e < cfg.events.size(); ++e) {
        for (double v : tpl->column(cls, e)) dg->add_f64(v);
        const auto& m = c.det.model_for(cls, e);
        dg->add_u64(m.has_value() ? 1 : 0);
        if (m) dg->add_f64(m->threshold);
      }
    }
  }
  return c;
}

calibration calibrate_defender(nn::model& net, const data::dataset& calib,
                               const core::detector_config& cfg,
                               std::size_t per_class, tracer& tr, samples& s) {
  auto mon = sim_monitor(net, kTemplateSeed);
  return calibrate(*mon, cfg, calib, per_class, kTemplateSeed, 1, tr, s);
}

std::string reference_digest(nn::model& net, const core::detector_config& cfg,
                             const data::dataset& calib, std::size_t per_class,
                             std::size_t threads,
                             const std::vector<tensor>& probes,
                             hpc::hpc_monitor* verdict_monitor, tracer& tr) {
  digest dg;
  samples scratch;
  auto mon = sim_monitor(net, 99);
  const auto ref = calibrate(*mon, cfg, calib, per_class, kGoldenSeed, threads,
                             tr, scratch, &dg);
  hpc::hpc_monitor& vm = verdict_monitor ? *verdict_monitor : *mon;
  uarch::trace_generator gen;
  for (const tensor& x : probes) {
    std::size_t predicted = 0;
    const auto counts = gen.run(net.trace_inference(x, predicted));
    dg.add_u64(predicted);
    for (hpc::hpc_event e : hpc::all_events()) {
      dg.add_u64(hpc::extract(counts, e));
    }
    const core::verdict v = ref.det.classify(vm, x);
    dg.add_u64(v.predicted);
    dg.add_u64(v.adversarial_any ? 1 : 0);
    for (bool f : v.flagged) dg.add_u64(f ? 1 : 0);
  }
  return dg.hex();
}

// ------------------------------------------------------------ attribution

namespace {

void find_convs(const nn::layer& l,
                std::map<std::string, const nn::conv2d*>& out) {
  if (const auto* c = dynamic_cast<const nn::conv2d*>(&l)) out[c->name()] = c;
  l.for_each_child([&](const nn::layer& child) { find_convs(child, out); });
}

/// Times ops::im2col and ops::matmul at every conv geometry one inference
/// of `net` lowers to (taken from the conv entries of a trace).
void time_kernels(nn::model& net, const nn::inference_trace& trace,
                  tracer& tr, samples& s) {
  std::map<std::string, const nn::conv2d*> convs;
  find_convs(net.net(), convs);
  rng gen(0x6e33);
  double im2col_s = 0, matmul_s = 0, flops = 0;
  for (const auto& e : trace.layers) {
    if (e.kind != nn::layer_kind::conv2d) continue;
    const auto it = convs.find(e.name);
    if (it == convs.end()) continue;
    const auto& cfg = it->second->config();
    const auto side = static_cast<std::size_t>(
        std::lround(std::sqrt(static_cast<double>(e.in_spatial))));
    const ops::conv_geometry g{cfg.in_channels, side, side, cfg.kernel,
                               cfg.kernel,      cfg.stride, cfg.pad};
    const tensor x = tensor::rand_uniform(
        shape{1, cfg.in_channels, side, side}, gen, 0.0f, 1.0f);
    const tensor w = tensor::randn(
        shape{cfg.out_channels, cfg.in_channels * cfg.kernel * cfg.kernel},
        gen, 0.1f);
    tensor cols;
    // Best of a few calls: a kernel probe, not a latency sample.
    double best_i = 1e9, best_m = 1e9;
    for (int rep = 0; rep < 5; ++rep) {
      best_i = std::min(best_i, tr.time("tensor.im2col", 0, [&] {
        cols = ops::im2col(x, 0, g);
      }));
      best_m = std::min(best_m, tr.time("tensor.matmul", 0, [&] {
        const tensor y = ops::matmul(w, cols);
        if (y.numel() == 0) throw std::logic_error("empty matmul");
      }));
    }
    im2col_s += best_i;
    matmul_s += best_m;
    flops += 2.0 * static_cast<double>(cfg.out_channels) *
             static_cast<double>(w.dims()[1]) *
             static_cast<double>(g.out_h() * g.out_w());
  }
  s.add("tensor.im2col_us", 1e6 * im2col_s);
  s.add("tensor.matmul_us", 1e6 * matmul_s);
  s.add("tensor.matmul_mflop", flops / 1e6);
  s.add("tensor.matmul_gflops", matmul_s > 0 ? flops / matmul_s / 1e9 : 0.0);
}

}  // namespace

void attribute(nn::model& net, hpc::hpc_monitor& monitor,
               const core::detector& det, const std::vector<tensor>& queries,
               double seconds, tracer& tr, samples& s) {
  const auto& cfg = det.config();
  uarch::trace_generator gen;
  nn::forward_ctx plain;
  plain.grad = false;
  const double stop = now_s() + seconds;
  for (std::size_t q = 0; q < queries.size() * 4 && now_s() < stop; ++q) {
    const tensor& x = queries[q % queries.size()];
    // The verdict as one call, then the calls it is made of.
    const double verdict_s = tr.time("core.classify", q, [&] {
      (void)det.classify(monitor, x);
    });
    const double fwd_s =
        tr.time("nn.forward", q, [&] { (void)net.forward(x, plain); });
    std::size_t predicted = 0;
    nn::inference_trace trace;
    const double ti_s = tr.time("nn.trace_inference", q, [&] {
      trace = net.trace_inference(x, predicted);
    });
    uarch::uarch_counts counts;
    const double rp_s =
        tr.time("uarch.replay", q, [&] { counts = gen.run(trace); });
    hpc::measurement m;
    const double ms_s = tr.time("hpc.measure", q, [&] {
      m = monitor.measure(x, cfg.events, cfg.repeats);
    });
    const double sc_s = tr.time("core.score", q, [&] {
      (void)det.score(m.predicted, m.mean_counts, m.q.available);
    });
    std::size_t active = 0;
    for (const auto& e : trace.layers) active += e.active_inputs.size();

    s.add("trace.verdict_untraced_ms", 1e3 * verdict_s);
    s.add("nn.forward_us", 1e6 * fwd_s);
    s.add("nn.trace_inference_us", 1e6 * ti_s);
    s.add("nn.active_inputs", static_cast<double>(active));
    s.add("uarch.replay_us", 1e6 * rp_s);
    s.add("uarch.replay_ns_per_active",
          1e9 * rp_s / static_cast<double>(std::max<std::size_t>(active, 1)));
    s.add("uarch.cache_references",
          static_cast<double>(counts.cache_references));
    s.add("hpc.measure_us", 1e6 * ms_s);
    s.add("hpc.self_us", 1e6 * (ms_s - ti_s - rp_s));
    s.add("hpc.retries_per_sample", m.q.retries);
    s.add("hpc.outliers_per_sample", m.q.outliers_rejected);
    s.add("hpc.failed_reps_per_sample", m.q.failed_repetitions);
    s.add("core.score_us", 1e6 * sc_s);

    if (q % 4 == 0) {
      // Top-level children through layer::forward, traced, in order.
      nn::inference_trace block_trace;
      nn::forward_ctx ctx;
      ctx.grad = false;
      ctx.trace = &block_trace;
      auto& seq = net.net();
      tensor h = x;
      for (std::size_t i = 0; i < seq.size(); ++i) {
        auto& child = seq.at(i);
        const std::string name = "nn.block." + child.name() + "_us";
        s.add(name, 1e6 * tr.time("nn.block", q, [&] {
          h = child.forward(h, ctx);
        }));
      }
    }
    if (q == 0) time_kernels(net, trace, tr, s);
  }
}

// ---------------------------------------------------------------- reports

namespace {

/// Top-level children of the three scenario models (S1 stem_bn/sep*, S2
/// block*, S3 dense*/trans*/final_*); a workload reports 0 for the
/// children its model does not have.
const char* const kChildren[] = {
    "stem",   "stem_bn", "stem_act", "sep1",   "sep2",     "sep3",
    "block1", "block2",  "block3",   "block4", "dense1",   "trans1",
    "dense2", "trans2",  "dense3",   "final_bn", "final_act", "gap",
    "head"};

}  // namespace

void report(const samples& s, result& r) {
  r.set("setup_s", s.median("setup_s"), "s");
  // Mean, not median: a calibration takes a second or less, so single ones
  // fall wholly in a fast or a slow spell of a shared host, and the median
  // of a few jumps between the two speeds.
  r.set("calibrate_s", s.mean("calibrate_s"), "s");
  r.set("peak_rss_mb", peak_rss_mb(), "MB");

  const auto med = [&](const char* name, const char* unit) {
    r.set(name, s.median(name), unit);
  };
  for (const char* n :
       {"data.synthesize_s", "analysis.verify_s", "nn.load_state_s",
        "nn.accuracy_s", "attack.pool_s", "core.collect_template_s",
        "core.fit_s"}) {
    med(n, "s");
  }
  med("core.template_accept_share", "share");
  med("gmm.fit_ms_per_cell", "ms");
  med("hpc.batch_rows_per_s", "1/s");
  for (const char* n :
       {"nn.forward_us", "nn.trace_inference_us", "uarch.replay_us",
        "hpc.measure_us", "hpc.self_us", "core.score_us", "tensor.im2col_us",
        "tensor.matmul_us"}) {
    med(n, "us");
  }
  for (const char* child : kChildren) {
    const std::string name = std::string("nn.block.") + child + "_us";
    r.set(name, s.median(name), "us");
  }
  r.set("nn.active_inputs", s.mean("nn.active_inputs"), "count");
  r.set("uarch.cache_references", s.mean("uarch.cache_references"), "count");
  med("uarch.replay_ns_per_active", "ns");
  med("tensor.matmul_gflops", "GFLOP/s");
  med("tensor.matmul_mflop", "Mflop");
  r.set("hpc.retries_per_sample", s.mean("hpc.retries_per_sample"), "count");
  r.set("hpc.outliers_per_sample", s.mean("hpc.outliers_per_sample"), "count");
  r.set("hpc.failed_reps_per_sample", s.mean("hpc.failed_reps_per_sample"),
        "count");
  const double untraced = s.median("trace.verdict_untraced_ms");
  r.set("trace.verdict_untraced_ms", untraced, "ms");
  const double plain = s.median("trace.plain_verdict_ms");
  r.set("trace.overhead_share",
        plain > 0 ? s.median("trace.spanned_verdict_ms") / plain - 1.0 : 0.0,
        "share");
  const double attributed =
      (s.median("nn.trace_inference_us") + s.median("uarch.replay_us") +
       s.median("hpc.self_us") + s.median("core.score_us")) /
      1e3;
  r.set("trace.attributed_share", untraced > 0 ? attributed / untraced : 0.0,
        "share");

  med("core.detection_f1", "share");
  med("verdict_p50_ms", "ms");
  r.set("verdict_samples", s.sum("verdict_samples"), "count");
  // serve and track: only serve_s1 runs them.
  const auto& submit = s.get("serve.submit_us");
  r.set("serve.submit_p50_us", quantile(submit, 0.5), "us");
  r.set("serve.submit_p99_us", quantile(submit, 0.99), "us");
  r.set("serve.generator_late_ms", quantile(s.get("serve.late_ms"), 0.99),
        "ms");
  med("serve.round_us", "us");
  r.set("serve.round_size", s.mean("serve.round_size"), "count");
  med("serve.queue_wait_ms", "ms");
  med("serve.full_fidelity_share", "share");
  for (const char* n :
       {"serve.honest_rejected_queue_full", "serve.honest_rejected_deadline",
        "serve.honest_rejected_backpressure", "serve.honest_rejected_banned",
        "serve.campaign_rejected_banned", "serve.shed_deadline",
        "serve.deadline_misses", "serve.repeats_shed", "track.bans",
        "track.peak_bytes"}) {
    r.set(n, s.sum(n), "count");
  }
  for (const char* n :
       {"serve.rung0_share", "serve.rung1_share", "serve.rung2_share",
        "serve.rung3_share", "track.matched_share",
        "track.campaigns_banned_share"}) {
    med(n, "share");
  }
  med("track.observe_us", "us");
}

}  // namespace perfbench
