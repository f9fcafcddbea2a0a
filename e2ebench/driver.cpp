// The end-to-end benchmark's in-process driver.
//
// It runs real analyses through the entry points the raxh CLI and raxhd call
// (run_multistart_ml / run_hybrid_comprehensive under mpi::run_process_ranks,
// serve::Server + serve::Client), with the defaults raxh applies, and prints
// one JSON record as its last output line. run.py builds it, checks the
// results against references and turns the record into metrics.
//
//   e2ebench --workload W --seed S --seconds N --scratch DIR
//            [--mode run|reference|traced] [--inputs ID,ID,...]
//
// run        untraced timed loop: setup samples, one record per operation
// reference  plain runs (scalar kernel, repeats off, one thread, same ranks)
//            of the listed inputs; their lnL and taxon set are the reference
// traced     e2ebench_traced only: untraced/traced operation pairs on the
//            first input, then the layer probes; prints per-layer metrics
#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "bio/io.h"
#include "bio/patterns.h"
#include "bio/seqsim.h"
#include "core/analyses.h"
#include "core/hybrid.h"
#include "core/job_context.h"
#include "likelihood/engine.h"
#include "likelihood/kernels.h"
#include "likelihood/repeats.h"
#include "minimpi/comm.h"
#include "model/gtr.h"
#include "model/rates.h"
#include "obs/flight.h"
#include "obs/hist.h"
#include "obs/obs.h"
#include "obs/phase.h"
#include "parallel/workforce.h"
#include "serve/cache.h"
#include "serve/client.h"
#include "serve/server.h"
#include "trace.h"
#include "tree/tree.h"

namespace e2e {
namespace {

using namespace raxh;
using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

// --- workloads ---------------------------------------------------------------

// Alignment recipe: the raxh_make_alignment knobs.
struct Recipe {
  std::size_t taxa;
  std::size_t distinct;
  std::size_t sites;
  double mean_branch;
};

struct Workload {
  const char* name;
  char mode;          // 'd' = -f d, 'a' = -f a, 's' = served -f a jobs
  int ranks;          // -np (served: ranks per job)
  int threads;        // -T  (served: threads per job)
  int bootstraps;     // -N for -f a
  Recipe recipe;
  int inputs;         // alignments per run (served: the hot set)
};

// Sized so one pass over the inputs takes about the default run length on a
// 4-core host; see README.md for the reasoning behind each one.
constexpr Workload kWorkloads[] = {
    {"search_div", 'd', 1, 4, 0, {16, 1500, 1500, 0.12}, 20},
    {"search_dup", 'd', 1, 1, 0, {24, 1024, 1024, 0.005}, 20},
    {"comprehensive_2x2", 'a', 2, 2, 10, {12, 600, 800, 0.12}, 10},
    {"served_jobs", 's', 1, 2, 4, {12, 300, 400, 0.12}, 3},
};

// Served jobs: rounds shrunk through JobRequest, two closed-loop clients,
// one job in kFreshEvery brings an alignment the daemon has never seen.
constexpr int kServedClients = 2;
constexpr int kFreshEvery = 8;
constexpr int kFreshPool = 256;
// Daemon setup takes well under a millisecond, so it is sampled many times.
constexpr int kSetupReps = 25;

const Workload* find_workload(const std::string& name) {
  for (const Workload& w : kWorkloads)
    if (name == w.name) return &w;
  return nullptr;
}

// Seed of the k-th alignment of a run (splitmix64 of the run seed and k).
std::uint64_t input_seed(std::uint64_t seed, int k) {
  std::uint64_t z = seed * 0x9E3779B97F4A7C15ULL + static_cast<std::uint64_t>(k) + 1;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  z ^= z >> 31;
  return z & 0x7fffffffULL;
}

Alignment simulate(const Recipe& r, std::uint64_t sim_seed) {
  SimConfig cfg;
  cfg.taxa = r.taxa;
  cfg.distinct_sites = r.distinct;
  cfg.total_sites = r.sites;
  cfg.seed = sim_seed;
  cfg.mean_branch_length = r.mean_branch;
  return simulate_alignment(cfg).alignment;
}

std::string phylip_text(const Alignment& a) {
  std::ostringstream out;
  write_phylip(out, a);
  return out.str();
}

// --- small helpers -------------------------------------------------------------

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

std::uint64_t fnv1a(const std::string& s) {
  std::uint64_t h = 1469598103934665603ULL;
  for (const unsigned char c : s) {
    h ^= c;
    h *= 1099511628211ULL;
  }
  return h;
}

std::string hex64(std::uint64_t v) {
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016" PRIx64, v);
  return buf;
}

std::string double_bits(double d) {
  std::uint64_t bits = 0;
  std::memcpy(&bits, &d, sizeof bits);
  return hex64(bits);
}

// Sorted taxon labels of a Newick string, hashed.
std::string taxa_hash_of_newick(const std::string& newick) {
  std::vector<std::string> labels;
  std::string cur;
  bool in_label = false;
  for (const char c : newick) {
    if (c == '(' || c == ',') {
      in_label = true;
      cur.clear();
    } else if (in_label && (c == ':' || c == ')' || c == ';')) {
      if (!cur.empty()) labels.push_back(cur);
      in_label = false;
    } else if (in_label) {
      cur.push_back(c);
    }
  }
  std::sort(labels.begin(), labels.end());
  std::string joined;
  for (const auto& l : labels) joined += l + ",";
  return hex64(fnv1a(joined));
}

std::string taxa_hash_of_names(std::vector<std::string> names) {
  std::sort(names.begin(), names.end());
  std::string joined;
  for (const auto& l : names) joined += l + ",";
  return hex64(fnv1a(joined));
}

std::string json_escape(const std::string& s) {
  std::string out;
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out.push_back('\\');
      out.push_back(c);
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out.push_back(c);
    }
  }
  return out;
}

std::string num(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

// Peak resident set of this process since the last reset_peak_rss(), from
// VmHWM. Forked ranks start from their size at the fork.
double peak_rss_mb() {
  std::ifstream in("/proc/self/status");
  for (std::string line; std::getline(in, line);)
    if (line.rfind("VmHWM:", 0) == 0)
      return std::stod(line.substr(6)) / 1024.0;
  rusage self{};
  getrusage(RUSAGE_SELF, &self);
  return static_cast<double>(self.ru_maxrss) / 1024.0;
}

// Linux clear_refs "5": restart the peak so each analysis reports its own.
void reset_peak_rss() { std::ofstream("/proc/self/clear_refs") << "5"; }

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string(std::istreambuf_iterator<char>(in),
                     std::istreambuf_iterator<char>());
}

// --- one operation ---------------------------------------------------------------

struct OpResult {
  std::string input;  // alignment seed
  double wall_s = 0.0;
  double rss_mb = 0.0;  // peak resident set, max over ranks
  double lnl = 0.0;
  std::string newick;
  std::string taxa_hash;
  bool taxa_ok = false;
  std::string error;
  // served only
  bool cache_hit = false;
  std::string digest;
  bool digest_ok = true;
};

std::string op_json(const OpResult& op) {
  std::ostringstream o;
  o << "{\"input\":\"" << op.input << "\",\"wall_s\":" << num(op.wall_s)
    << ",\"rss_mb\":" << num(op.rss_mb)
    << ",\"lnl\":" << num(op.lnl) << ",\"lnl_bits\":\"" << double_bits(op.lnl)
    << "\",\"taxa_hash\":\"" << op.taxa_hash
    << "\",\"taxa_ok\":" << (op.taxa_ok ? "true" : "false")
    << ",\"cache_hit\":" << (op.cache_hit ? "true" : "false")
    << ",\"digest_ok\":" << (op.digest_ok ? "true" : "false")
    << ",\"error\":\"" << json_escape(op.error) << "\"}";
  return o.str();
}

// Per-rank observations of a traced operation, shipped to rank 0.
struct RankObs {
  trace::Report trace;
  obs::CounterSnapshot counters;
  obs::HistSnapshot crew_job, collective;
  std::uint64_t comm_bytes = 0;  // Comm::stats(), sent + received
  std::vector<std::pair<std::string, double>> phases;  // run_phases()
};

std::string serialize_rank(const RankObs& r) {
  std::ostringstream o;
  o << trace::serialize(r.trace);
  o << "counters";
  for (int i = 0; i < obs::kNumCounters; ++i) o << ' ' << r.counters.values[i];
  o << '\n';
  for (const auto* h : {&r.crew_job, &r.collective}) {
    o << "hist " << h->count << ' ' << h->sum_ns << ' ' << h->max_ns;
    for (int b = 0; b < obs::kHistBuckets; ++b) o << ' ' << h->buckets[b];
    o << '\n';
  }
  o << "comm " << r.comm_bytes << '\n';
  for (auto [name, secs] : r.phases) {
    std::replace(name.begin(), name.end(), ' ', '_');
    o << "phase " << name << ' ' << num(secs) << '\n';
  }
  return o.str();
}

RankObs deserialize_rank(const std::string& text) {
  RankObs r;
  std::istringstream in(text);
  std::string line, trace_text;
  int hist_index = 0;
  while (std::getline(in, line)) {
    std::istringstream ls(line);
    std::string kind;
    ls >> kind;
    if (kind == "counters") {
      for (int i = 0; i < obs::kNumCounters; ++i) ls >> r.counters.values[i];
    } else if (kind == "hist") {
      obs::HistSnapshot& h = hist_index++ == 0 ? r.crew_job : r.collective;
      ls >> h.count >> h.sum_ns >> h.max_ns;
      for (int b = 0; b < obs::kHistBuckets; ++b) ls >> h.buckets[b];
    } else if (kind == "comm") {
      ls >> r.comm_bytes;
    } else if (kind == "phase") {
      std::string name;
      double secs = 0.0;
      ls >> name >> secs;
      r.phases.emplace_back(name, secs);
    } else {
      trace_text += line + "\n";
    }
  }
  r.trace = trace::deserialize(trace_text);
  return r;
}

RankObs observe_rank(const mpi::Comm& comm) {
  RankObs r;
  r.trace = trace::collect();
  r.counters = obs::counters_snapshot();
  r.crew_job = obs::hist_snapshot(obs::Hist::kCrewJobNs);
  r.collective = obs::hist_snapshot(obs::Hist::kCollectiveNs);
  const auto total = comm.stats().total();
  r.comm_bytes = total.bytes_sent + total.bytes_recv;
  r.phases = obs::run_phases().phases();
  return r;
}

void merge_hist(obs::HistSnapshot& into, const obs::HistSnapshot& from) {
  into.count += from.count;
  into.sum_ns += from.sum_ns;
  into.max_ns = std::max(into.max_ns, from.max_ns);
  for (int b = 0; b < obs::kHistBuckets; ++b) into.buckets[b] += from.buckets[b];
}

struct Analysis {
  OpResult op;
  std::vector<RankObs> ranks;     // traced only, index = rank
  std::vector<StageTimes> stage;  // -f a only (rank 0's gather)
};

struct RunConfig {
  const Workload* w;
  bool observe;  // traced: gather per-rank observations
  std::string scratch;
};

// One analysis exactly as raxh runs it for -f d / -f a: process-backed ranks
// with default collectives and transport, obs phases as in raxh_main.
Analysis run_one_shot(const RunConfig& cfg, const PatternAlignment& patterns,
                      const std::string& input) {
  Analysis out;
  out.op.input = input;
  const Workload& w = *cfg.w;
  std::string error;
  reset_peak_rss();
  mpi::run_process_ranks(w.ranks, [&](mpi::Comm& comm) {
    if (comm.rank() != 0) trace::reset();  // spans inherited from rank 0
    std::string newick;
    double lnl = 0.0;
    double wall = 0.0;
    try {
      if (w.mode == 'd') {
        MultistartOptions options;
        options.searches = 1;
        options.num_threads = w.threads;
        const auto t0 = Clock::now();
        const auto result = [&] {
          obs::ScopedPhase phase("search");
          return run_multistart_ml(comm, patterns, options);
        }();
        wall = seconds_since(t0);
        newick = result.best_tree_newick;
        lnl = result.best_lnl;
      } else {
        HybridOptions options;
        options.analysis.specified_bootstraps = w.bootstraps;
        options.analysis.num_threads = w.threads;
        options.compute_support = true;
        options.run_bootstopping = true;
        const auto t0 = Clock::now();
        const auto result = run_hybrid_comprehensive(comm, patterns, options);
        wall = seconds_since(t0);
        newick = result.best_tree_newick;
        lnl = result.best_lnl;
        if (comm.rank() == 0) out.stage = result.rank_times;
      }
    } catch (const std::exception& e) {
      if (comm.rank() == 0) error = e.what();
      else std::fprintf(stderr, "rank %d: %s\n", comm.rank(), e.what());
    }
    if (cfg.observe) {
      const std::string text = serialize_rank(observe_rank(comm));
      std::ofstream(cfg.scratch + "/rank" + std::to_string(comm.rank()) +
                    ".obs")
          << text;
    }
    if (comm.rank() == 0) {
      out.op.wall_s = wall;
      out.op.rss_mb = peak_rss_mb();
      out.op.lnl = lnl;
      out.op.newick = newick;
    } else {
      std::ofstream(cfg.scratch + "/rank" + std::to_string(comm.rank()) +
                    ".rss")
          << num(peak_rss_mb());
    }
  });
  for (int r = 1; r < w.ranks; ++r)
    out.op.rss_mb = std::max(
        out.op.rss_mb,
        std::stod(read_file(cfg.scratch + "/rank" + std::to_string(r) + ".rss")));
  out.op.error = error;
  out.op.taxa_hash = taxa_hash_of_newick(out.op.newick);
  out.op.taxa_ok = out.op.taxa_hash == taxa_hash_of_names(patterns.names());
  if (cfg.observe)
    for (int r = 0; r < w.ranks; ++r)
      out.ranks.push_back(deserialize_rank(
          read_file(cfg.scratch + "/rank" + std::to_string(r) + ".obs")));
  return out;
}

// --- served jobs -----------------------------------------------------------------

serve::JobRequest served_request(const Workload& w, std::string alignment) {
  serve::JobRequest r;
  r.name = "e2e";
  r.alignment = std::move(alignment);
  r.nranks = w.ranks;
  r.num_threads = w.threads;
  r.bootstraps = w.bootstraps;
  r.fast_rounds = 1;
  r.slow_rounds = 1;
  r.thorough_rounds = 1;
  return r;
}

std::string result_digest(const std::string& best, const std::string& support,
                          double lnl, int winner, int trees) {
  return hex64(fnv1a(best + "|" + support + "|" + double_bits(lnl) + "|" +
                     std::to_string(winner) + "|" + std::to_string(trees)));
}

// The one-shot equivalent of a served request: what raxh -f a computes for
// the same alignment, seeds, ranks and rounds (legacy process-global API).
HybridResult one_shot_of(const serve::JobRequest& r) {
  std::istringstream in(r.alignment);
  const PatternAlignment patterns = PatternAlignment::compress(read_phylip(in));
  HybridOptions o;
  o.analysis.specified_bootstraps = r.bootstraps;
  o.analysis.parsimony_seed = r.parsimony_seed;
  o.analysis.bootstrap_seed = r.bootstrap_seed;
  o.analysis.num_threads = r.num_threads;
  o.analysis.fast.max_rounds = r.fast_rounds;
  o.analysis.slow.max_rounds = r.slow_rounds;
  o.analysis.thorough.max_rounds = r.thorough_rounds;
  o.compute_support = true;
  o.run_bootstopping = false;
  HybridResult result;
  mpi::run_process_ranks(r.nranks, [&](mpi::Comm& comm) {
    HybridResult local = run_hybrid_comprehensive(comm, patterns, o);
    if (comm.rank() == 0) result = std::move(local);
  });
  return result;
}

struct ServedInputs {
  std::vector<std::string> ids;    // hot ids first, then the fresh pool
  std::vector<std::string> texts;  // raw PHYLIP bytes
  int hot = 0;
};

ServedInputs served_inputs(const Workload& w, std::uint64_t seed, int fresh) {
  ServedInputs s;
  s.hot = w.inputs;
  for (int k = 0; k < w.inputs + fresh; ++k) {
    const std::uint64_t id = input_seed(seed, k);
    s.ids.push_back(std::to_string(id));
    s.texts.push_back(phylip_text(simulate(w.recipe, id)));
  }
  return s;
}

serve::ServerOptions server_options(const Workload& w, const std::string& sock,
                                    std::size_t cache_bytes) {
  serve::ServerOptions o;
  o.socket_path = sock;
  o.service.max_concurrent_jobs = kServedClients;
  o.service.cache_bytes = cache_bytes;
  o.service.max_threads_per_rank = w.threads;
  return o;
}

// Room for the hot set plus about one fresh alignment, so fresh ones evict.
std::size_t served_cache_bytes(const ServedInputs& in) {
  std::istringstream text(in.texts[0]);
  const auto p = PatternAlignment::compress(read_phylip(text));
  return serve::AlignmentCache::approx_bytes(p) *
         static_cast<std::size_t>(in.hot + 1) * 11 / 10;
}

struct ServedLoop {
  std::vector<OpResult> ops;
  double loop_wall_s = 0.0;
  double peak_rss_mb = 0.0;  // daemon process, over the loop
  serve::CacheStats cache;
};

// Two closed-loop clients against an in-process daemon on a Unix socket.
ServedLoop served_loop(const Workload& w, const ServedInputs& in,
                       std::uint64_t seed, double seconds,
                       const std::string& sock) {
  ServedLoop out;
  reset_peak_rss();
  serve::Server server(server_options(w, sock, served_cache_bytes(in)));
  server.start();
  std::thread drainer([&] { server.run_until_shutdown(); });

  std::mutex mu;
  std::atomic<int> next_fresh{0};
  const auto t0 = Clock::now();
  std::vector<std::thread> clients;
  for (int c = 0; c < kServedClients; ++c) {
    clients.emplace_back([&, c] {
      Lcg rng(static_cast<std::int64_t>(seed % 1000003) * 31 + c + 7);
      try {
        serve::Client client = serve::Client::connect_unix(sock);
        for (int i = 0; i == 0 || seconds_since(t0) < seconds; ++i) {
          int k = rng.next_below(in.hot);
          if (rng.next_below(kFreshEvery) == 0) {
            const int f = next_fresh.fetch_add(1);
            if (in.hot + f < static_cast<int>(in.ids.size())) k = in.hot + f;
          }
          OpResult op;
          op.input = in.ids[static_cast<std::size_t>(k)];
          const auto s0 = Clock::now();
          try {
            const std::string id = client.submit(
                served_request(w, in.texts[static_cast<std::size_t>(k)]));
            const serve::JobStatus st = client.stream(id);
            if (st.state != serve::JobState::kDone) {
              op.error = std::string("job ended ") +
                         serve::job_state_name(st.state) + ": " + st.error;
            } else {
              const serve::JobResult r = client.result(id);
              op.wall_s = seconds_since(s0);
              op.lnl = r.best_lnl;
              op.newick = r.best_tree_newick;
              op.cache_hit = st.cache_hit;
              op.digest = result_digest(r.best_tree_newick,
                                        r.support_tree_newick, r.best_lnl,
                                        r.winner_rank, r.total_bootstrap_trees);
            }
          } catch (const std::exception& e) {
            op.error = e.what();
          }
          std::lock_guard<std::mutex> lock(mu);
          out.ops.push_back(std::move(op));
        }
      } catch (const std::exception& e) {
        OpResult op;
        op.error = std::string("client: ") + e.what();
        std::lock_guard<std::mutex> lock(mu);
        out.ops.push_back(std::move(op));
      }
    });
  }
  for (auto& t : clients) t.join();
  out.loop_wall_s = seconds_since(t0);
  out.peak_rss_mb = peak_rss_mb();
  out.cache = server.service().cache_stats();
  server.request_shutdown();
  drainer.join();
  return out;
}

// Every served job must equal the one-shot run of the same request.
void check_served(const Workload& w, const ServedInputs& in,
                  std::vector<OpResult>& ops,
                  std::map<std::string, HybridResult>* oneshots) {
  std::map<std::string, std::string> text_of;
  for (std::size_t i = 0; i < in.ids.size(); ++i) text_of[in.ids[i]] = in.texts[i];
  for (OpResult& op : ops) {
    if (!op.error.empty() || op.input.empty()) continue;
    auto it = oneshots->find(op.input);
    if (it == oneshots->end())
      it = oneshots
               ->emplace(op.input,
                         one_shot_of(served_request(w, text_of[op.input])))
               .first;
    const HybridResult& r = it->second;
    op.digest_ok = op.digest == result_digest(r.best_tree_newick,
                                              r.support_tree_newick, r.best_lnl,
                                              r.winner_rank,
                                              r.total_bootstrap_trees);
    std::istringstream text(text_of[op.input]);
    op.taxa_hash = taxa_hash_of_newick(op.newick);
    op.taxa_ok = op.taxa_hash == taxa_hash_of_names(read_phylip(text).names());
  }
}

// Daemon construction until its first accepted connection has been served.
double served_setup_once(const Workload& w, const std::string& sock) {
  const auto t0 = Clock::now();
  serve::Server server(server_options(w, sock, 1u << 20));
  server.start();
  {
    serve::Client client = serve::Client::connect_unix(sock);
    (void)client.list();
  }
  const double s = seconds_since(t0);
  server.request_shutdown();
  return s;
}

// --- inputs of one-shot workloads ------------------------------------------------

struct OneShotInputs {
  std::vector<std::string> ids;
  std::vector<std::string> paths;
  std::vector<PatternAlignment> patterns;
};

// The CLI's setup phase: read_phylip_file + PatternAlignment::compress.
PatternAlignment setup_phase(const std::string& path, double* seconds) {
  const auto t0 = Clock::now();
  obs::ScopedPhase setup("setup");
  const Alignment alignment = read_phylip_file(path);
  PatternAlignment p = PatternAlignment::compress(alignment);
  *seconds = seconds_since(t0);
  return p;
}

// The run's alignments, or only those listed.
OneShotInputs one_shot_inputs(const Workload& w, std::uint64_t seed,
                              const std::string& scratch,
                              const std::vector<std::string>& only) {
  OneShotInputs in;
  std::filesystem::create_directories(scratch + "/inputs");
  for (int k = 0; k < w.inputs; ++k) {
    const std::string id = std::to_string(input_seed(seed, k));
    if (!only.empty() && std::find(only.begin(), only.end(), id) == only.end())
      continue;
    const std::string path =
        scratch + "/inputs/" + w.name + "-" + id + ".phy";
    write_phylip_file(path, simulate(w.recipe, std::stoull(id)));
    in.ids.push_back(id);
    in.paths.push_back(path);
  }
  for (const std::string& path : in.paths) {
    double unused = 0.0;
    in.patterns.push_back(setup_phase(path, &unused));
  }
  return in;
}

// --- layer probes ------------------------------------------------------------------

struct Traversal {
  double ms = 0.0;
  double newviews = 0.0;  // per traversal
};

// invalidate_all + evaluate on a fixed tree: one full traversal.
Traversal probe_traversal(const PatternAlignment& patterns, const Tree& tree,
                          int threads, bool repeats) {
  const bool saved = repeats_enabled();
  set_repeats_enabled(repeats);
  Workforce crew(threads);
  LikelihoodEngine engine(patterns, GtrParams::jukes_cantor(),
                          RateModel::cat(patterns.num_patterns()), &crew);
  engine.evaluate(tree);
  constexpr int kReps = 41;
  std::vector<double> ms;
  const std::uint64_t n0 = engine.newview_count();
  for (int i = 0; i < kReps; ++i) {
    engine.invalidate_all();
    const auto t0 = Clock::now();
    engine.evaluate(tree);
    ms.push_back(seconds_since(t0) * 1e3);
  }
  Traversal t;
  t.ms = median(ms);
  t.newviews = static_cast<double>(engine.newview_count() - n0) / kReps;
  set_repeats_enabled(saved);
  return t;
}

double probe_dispatch_us(int threads) {
  Workforce crew(threads);
  const std::function<void(int, int)> empty = [](int, int) {};
  for (int i = 0; i < 200; ++i) crew.run(empty);
  std::vector<double> us;
  for (int i = 0; i < 2000; ++i) {
    const auto t0 = Clock::now();
    crew.run(empty);
    us.push_back(seconds_since(t0) * 1e6);
  }
  return median(us);
}

double probe_barrier_us(int ranks) {
  double result = 0.0;
  mpi::run_process_ranks(ranks, [&](mpi::Comm& comm) {
    for (int i = 0; i < 50; ++i) comm.barrier();
    std::vector<double> us;
    for (int i = 0; i < 500; ++i) {
      const auto t0 = Clock::now();
      comm.barrier();
      us.push_back(seconds_since(t0) * 1e6);
    }
    if (comm.rank() == 0) result = median(us);
  });
  return result;
}

// Cold: miss + parse + compress + insert into an empty cache; warm: a hit.
std::pair<double, double> probe_admission_ms(const std::string& raw) {
  std::vector<double> cold, warm;
  serve::AlignmentCache cache(64u << 20);
  for (int i = 0; i < 7; ++i) {
    serve::AlignmentCache fresh(64u << 20);
    const auto t0 = Clock::now();
    if (fresh.find(raw, "GTRCAT") == nullptr) {
      std::istringstream in(raw);
      fresh.insert(raw, "GTRCAT",
                   std::make_shared<const PatternAlignment>(
                       PatternAlignment::compress(read_phylip(in))));
    }
    cold.push_back(seconds_since(t0) * 1e3);
    if (i == 0) cache.insert(raw, "GTRCAT", fresh.find(raw, "GTRCAT"));
  }
  for (int i = 0; i < 1000; ++i) {
    const auto t0 = Clock::now();
    const auto hit = cache.find(raw, "GTRCAT");
    warm.push_back(seconds_since(t0) * 1e3);
    if (hit == nullptr) throw std::runtime_error("admission probe: no hit");
  }
  return {median(cold), median(warm)};
}

// --- metric output ------------------------------------------------------------

class Metrics {
 public:
  void add(const std::string& name, double value, const std::string& unit) {
    if (!body_.empty()) body_ += ",";
    body_ += "\"" + name + "\":{\"value\":" + num(value) + ",\"unit\":\"" +
             unit + "\"}";
  }
  [[nodiscard]] std::string json() const { return "{" + body_ + "}"; }

 private:
  std::string body_;
};

double ns_to_us(std::uint64_t ns) { return static_cast<double>(ns) / 1e3; }

double ratio(double a, double b) { return b > 0.0 ? a / b : 0.0; }

struct LayerInputs {
  const Workload* w;
  const PatternAlignment* patterns;
  std::string raw;        // PHYLIP bytes of the probed input
  std::string newick;     // final tree of the traced operation
  double parse_s = 0.0, compress_s = 0.0;
  std::vector<RankObs> ranks;
  std::vector<StageTimes> stage;
  double per_op = 1.0;    // divide totals by this (served: jobs traced)
  double wall_untraced = 0.0, wall_traced = 0.0;
  double check_wall_s = 0.0;  // wall the per-thread self times must fit in
  // served only
  obs::HistSnapshot admit, queue, exec;
  serve::CacheStats cache;
};

std::string layer_metrics(const LayerInputs& li) {
  Metrics m;
  const Workload& w = *li.w;
  trace::Report tr;
  obs::CounterSnapshot c;
  obs::HistSnapshot crew_job, collective;
  std::uint64_t comm_bytes = 0;
  for (const RankObs& r : li.ranks) {
    trace::merge(tr, r.trace);
    for (int i = 0; i < obs::kNumCounters; ++i)
      c.values[i] += r.counters.values[i];
    merge_hist(crew_job, r.crew_job);
    comm_bytes += r.comm_bytes;
  }
  if (!li.ranks.empty()) collective = li.ranks[0].collective;
  const auto span_s = [&](const std::string& name, bool self) {
    const auto it = tr.spans.find(name);
    if (it == tr.spans.end()) return 0.0;
    return static_cast<double>(self ? it->second.self_ns : it->second.incl_ns) /
           1e9 / li.per_op;
  };
  const auto layer = [&](const std::string& name) {
    const auto it = tr.layers.find(name);
    return it == tr.layers.end() ? trace::Totals{} : it->second;
  };
  const double per = li.per_op;
  const auto count = [&](obs::Counter k) {
    return static_cast<double>(c[k]) / per;
  };

  m.add("bio.parse_s", li.parse_s, "s");
  m.add("bio.compress_s", li.compress_s, "s");
  m.add("bio.patterns", static_cast<double>(li.patterns->num_patterns()),
        "count");

  m.add("likelihood.newviews", count(obs::Counter::kNewviewCalls), "count");
  m.add("likelihood.patterns_evaluated",
        count(obs::Counter::kPatternsEvaluated), "count");
  m.add("likelihood.engine_self_s",
        static_cast<double>(layer("likelihood").self_ns +
                            layer("model").self_ns) /
            1e9 / per,
        "s");
  const double computed = count(obs::Counter::kRepeatPatternsComputed);
  const double copied = count(obs::Counter::kRepeatPatternsCopied);
  m.add("likelihood.repeat_copy_ratio", ratio(copied, computed + copied),
        "ratio");

  const Tree tree = Tree::parse_newick(li.newick, li.patterns->names());
  const bool repeats_default = repeats_enabled();
  const Traversal t1_off = probe_traversal(*li.patterns, tree, 1, false);
  const Traversal t1_def =
      probe_traversal(*li.patterns, tree, 1, repeats_default);
  const Traversal tn_on = probe_traversal(*li.patterns, tree, w.threads, true);
  const Traversal tn_off =
      probe_traversal(*li.patterns, tree, w.threads, false);
  const Traversal& tn_def = repeats_default ? tn_on : tn_off;
  m.add("likelihood.traversal_ms", tn_def.ms, "ms");
  m.add("likelihood.repeats_cost_ratio", ratio(tn_on.ms, tn_off.ms), "ratio");
  m.add("likelihood.kernel_ns_per_pattern",
        ratio(t1_off.ms * 1e6,
              t1_off.newviews *
                  static_cast<double>(li.patterns->num_patterns())),
        "ns");

  m.add("model.opt_s", static_cast<double>(layer("model").incl_ns) / 1e9 / per,
        "s");

  m.add("parallel.crew_jobs", count(obs::Counter::kWorkforceJobs), "count");
  m.add("parallel.barrier_wait_s", count(obs::Counter::kBarrierWaitNs) / 1e9,
        "s");
  m.add("parallel.crew_job_p50_us", ns_to_us(crew_job.quantile_ns(0.5)), "us");
  m.add("parallel.crew_job_p99_us", ns_to_us(crew_job.quantile_ns(0.99)),
        "us");
  m.add("parallel.dispatch_us", probe_dispatch_us(w.threads), "us");
  m.add("parallel.crew_speedup", ratio(t1_def.ms, tn_def.ms), "ratio");

  m.add("search.spr_self_s", span_s("search.SprSearch::run", true), "s");
  m.add("search.parsimony_s",
        span_s("search.randomized_stepwise_addition", false), "s");
  m.add("search.moves_tried", static_cast<double>(tr.moves_tried) / per,
        "count");
  m.add("search.accept_ratio",
        ratio(static_cast<double>(tr.moves_accepted),
              static_cast<double>(tr.moves_tried)),
        "ratio");

  double st[4] = {0, 0, 0, 0};
  double tmax = 0.0, tmin = 0.0;
  for (std::size_t r = 0; r < li.stage.size(); ++r) {
    const StageTimes& s = li.stage[r];
    st[0] = std::max(st[0], s.bootstrap);
    st[1] = std::max(st[1], s.fast);
    st[2] = std::max(st[2], s.slow);
    st[3] = std::max(st[3], s.thorough);
    tmax = r == 0 ? s.total() : std::max(tmax, s.total());
    tmin = r == 0 ? s.total() : std::min(tmin, s.total());
  }
  m.add("core.stage_bootstrap_s", st[0], "s");
  m.add("core.stage_fast_s", st[1], "s");
  m.add("core.stage_slow_s", st[2], "s");
  m.add("core.stage_thorough_s", st[3], "s");
  m.add("core.rank_imbalance_s", tmax - tmin, "s");

  m.add("minimpi.collectives", static_cast<double>(collective.count) / per,
        "count");
  m.add("minimpi.bytes", static_cast<double>(comm_bytes) / per, "bytes");
  m.add("minimpi.collective_p50_us", ns_to_us(collective.quantile_ns(0.5)),
        "us");
  m.add("minimpi.barrier_us", probe_barrier_us(w.ranks), "us");

  m.add("tree.support_s", static_cast<double>(layer("tree").incl_ns) / 1e9 / per,
        "s");

  const auto [cold_ms, warm_ms] = probe_admission_ms(li.raw);
  m.add("serve.admit_p50_ms", static_cast<double>(li.admit.quantile_ns(0.5)) / 1e6,
        "ms");
  m.add("serve.queue_wait_p50_ms",
        static_cast<double>(li.queue.quantile_ns(0.5)) / 1e6, "ms");
  m.add("serve.exec_p50_s", static_cast<double>(li.exec.quantile_ns(0.5)) / 1e9,
        "s");
  m.add("serve.cache_hit_ratio",
        ratio(static_cast<double>(li.cache.hits),
              static_cast<double>(li.cache.hits + li.cache.misses)),
        "ratio");
  m.add("serve.admit_cold_ms", cold_ms, "ms");
  m.add("serve.admit_warm_ms", warm_ms, "ms");

  m.add("obs.trace_overhead_ratio", ratio(li.wall_traced, li.wall_untraced),
        "ratio");
  m.add("obs.spans_dropped", count(obs::Counter::kSpansDropped), "count");
  return m.json();
}

// obs phase totals per rank: the Figs. 3-4 stage split of the traced run.
std::string phases_json(const LayerInputs& li) {
  std::string out = "[";
  for (std::size_t r = 0; r < li.ranks.size(); ++r) {
    out += r ? ",{" : "{";
    for (std::size_t i = 0; i < li.ranks[r].phases.size(); ++i) {
      const auto& [name, secs] = li.ranks[r].phases[i];
      out += (i ? ",\"" : "\"") + json_escape(name) + "\":" + num(secs);
    }
    out += "}";
  }
  return out + "]";
}

std::string trace_check_json(const LayerInputs& li) {
  trace::Report tr;
  for (const RankObs& r : li.ranks) trace::merge(tr, r.trace);
  std::ostringstream o;
  o << "{\"nest_violations\":" << tr.nest_violations
    << ",\"raw_spans\":" << tr.raw_spans << ",\"raw_dropped\":" << tr.raw_dropped
    << ",\"max_thread_self_s\":"
    << num(static_cast<double>(tr.max_thread_self_ns) / 1e9)
    << ",\"wall_s\":" << num(li.check_wall_s) << ",\"layers\":{";
  bool first = true;
  for (const auto& [name, t] : tr.layers) {
    o << (first ? "" : ",") << "\"" << name << "\":{\"count\":" << t.count
      << ",\"incl_s\":" << num(static_cast<double>(t.incl_ns) / 1e9)
      << ",\"self_s\":" << num(static_cast<double>(t.self_ns) / 1e9) << "}";
    first = false;
  }
  o << "}}";
  return o.str();
}

// --- modes -------------------------------------------------------------------------

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  std::string scratch = ".bench_build/e2ebench-scratch";
  std::string mode = "run";
  std::vector<std::string> inputs;
};

// The CLV layout the engine picks for CAT (searches) and GAMMA (final
// scoring) on an alignment of this workload's width.
std::string layout_json(const Workload& w) {
  SimConfig cfg;
  cfg.taxa = 4;
  cfg.distinct_sites = cfg.total_sites = w.recipe.distinct;
  const PatternAlignment p =
      PatternAlignment::compress(simulate_alignment(cfg).alignment);
  const GtrParams gtr = GtrParams::jukes_cantor();
  const LikelihoodEngine cat(p, gtr, RateModel::cat(p.num_patterns()));
  const LikelihoodEngine gamma(p, gtr, RateModel::gamma(0.5));
  return std::string("{\"cat\":\"") + kern::clv_layout_name(cat.clv_layout()) +
         "\",\"gamma\":\"" + kern::clv_layout_name(gamma.clv_layout()) + "\"}";
}

std::string stamp_json(const Workload& w) {
  return "{" + kern::to_json_section() + ",\"clv_layout\":" + layout_json(w) +
         ",\"repeats_default\":" +
         (repeats_enabled() ? "true" : "false") + ",\"build_type\":\"" +
         E2E_BUILD_TYPE + "\",\"traced_binary\":" +
         (trace::available() ? "true" : "false") + "}";
}

std::string ops_json(const std::vector<OpResult>& ops) {
  std::string s = "[";
  for (std::size_t i = 0; i < ops.size(); ++i)
    s += (i ? "," : "") + op_json(ops[i]);
  return s + "]";
}

std::string list_json(const std::vector<double>& v) {
  std::string s = "[";
  for (std::size_t i = 0; i < v.size(); ++i) s += (i ? "," : "") + num(v[i]);
  return s + "]";
}

std::string recipe_json(const Workload& w) {
  std::ostringstream o;
  o << "{\"taxa\":" << w.recipe.taxa << ",\"distinct\":" << w.recipe.distinct
    << ",\"sites\":" << w.recipe.sites
    << ",\"mean_branch\":" << num(w.recipe.mean_branch) << ",\"ranks\":"
    << w.ranks << ",\"threads\":" << w.threads
    << ",\"bootstraps\":" << w.bootstraps << ",\"mode\":\"" << w.mode
    << "\"}";
  return o.str();
}

void print_record(const Args& a, const std::string& body) {
  const Workload& w = *find_workload(a.workload);
  std::vector<std::string> ids;
  for (int k = 0; k < w.inputs; ++k)
    ids.push_back("\"" + std::to_string(input_seed(a.seed, k)) + "\"");
  std::string id_list;
  for (std::size_t i = 0; i < ids.size(); ++i) id_list += (i ? "," : "") + ids[i];
  std::printf("{\"workload\":\"%s\",\"seed\":%" PRIu64
              ",\"mode\":\"%s\",\"stamp\":%s,\"recipe\":%s,"
              "\"reference_inputs\":[%s],%s}\n",
              a.workload.c_str(), a.seed, a.mode.c_str(), stamp_json(w).c_str(),
              recipe_json(w).c_str(), id_list.c_str(), body.c_str());
  std::fflush(stdout);
}

int mode_run(const Args& a, const Workload& w) {
  std::ostringstream body;
  if (w.mode == 's') {
    const std::string sock = a.scratch + "/e2e.sock";
    std::vector<double> setup;
    for (int i = 0; i < kSetupReps; ++i) setup.push_back(served_setup_once(w, sock));
    const ServedInputs in = served_inputs(w, a.seed, kFreshPool);
    ServedLoop loop = served_loop(w, in, a.seed, a.seconds, sock);
    const double rss = loop.peak_rss_mb;
    std::map<std::string, HybridResult> oneshots;
    check_served(w, in, loop.ops, &oneshots);
    body << "\"setup_s\":" << list_json(setup) << ",\"ops\":" << ops_json(loop.ops)
         << ",\"loop_wall_s\":" << num(loop.loop_wall_s)
         << ",\"peak_rss_mb\":" << num(rss)
         << ",\"hot_inputs\":" << w.inputs << ",\"cache\":{\"hits\":"
         << loop.cache.hits << ",\"misses\":" << loop.cache.misses
         << ",\"evictions\":" << loop.cache.evictions << "}";
  } else {
    // Each analysis starts with its own setup, as a raxh run does; the
    // samples are spread over the run instead of taken in one burst.
    const OneShotInputs in = one_shot_inputs(w, a.seed, a.scratch, {});
    const RunConfig cfg{&w, false, a.scratch};
    std::vector<OpResult> ops;
    std::vector<double> setup;
    const auto t0 = Clock::now();
    const std::size_t k = in.ids.size();
    for (std::size_t i = 0; i < k || seconds_since(t0) < a.seconds; ++i) {
      double s = 0.0;
      const PatternAlignment patterns = setup_phase(in.paths[i % k], &s);
      setup.push_back(s);
      ops.push_back(run_one_shot(cfg, patterns, in.ids[i % k]).op);
    }
    const double loop_wall = seconds_since(t0);
    body << "\"setup_s\":" << list_json(setup) << ",\"ops\":" << ops_json(ops)
         << ",\"loop_wall_s\":" << num(loop_wall);
  }
  print_record(a, body.str());
  return 0;
}

// Plain runs for the reference: scalar kernel, repeats off, the workload's
// rank and thread counts. The final lnL depends on the crew width in its
// last bits (crew reduction order), while kernel member and repeats are
// bit-invisible, so the plain run keeps the workload's thread count. Runs
// that fit side by side in 4 threads do so, on thread-backed ranks
// (bit-identical to process-backed ones).
int mode_reference(const Args& a, const Workload& w) {
  kern::set_kernel_isa(kern::KernelIsa::kScalar);
  set_repeats_enabled(false);
  struct Job {
    std::string id;
    std::shared_ptr<const PatternAlignment> patterns;
    std::string raw;
    OpResult op;
  };
  std::vector<Job> jobs;
  if (w.mode == 's') {
    const ServedInputs in = served_inputs(w, a.seed, 0);
    for (std::size_t i = 0; i < in.ids.size(); ++i) {
      if (!a.inputs.empty() &&
          std::find(a.inputs.begin(), a.inputs.end(), in.ids[i]) == a.inputs.end())
        continue;
      std::istringstream text(in.texts[i]);
      jobs.push_back({in.ids[i],
                      std::make_shared<const PatternAlignment>(
                          PatternAlignment::compress(read_phylip(text))),
                      in.texts[i], {}});
    }
  } else {
    OneShotInputs in = one_shot_inputs(w, a.seed, a.scratch, a.inputs);
    for (std::size_t i = 0; i < in.ids.size(); ++i)
      jobs.push_back({in.ids[i],
                      std::make_shared<const PatternAlignment>(
                          std::move(in.patterns[i])),
                      "", {}});
  }
  const int threads = w.threads;
  std::atomic<std::size_t> next{0};
  const int lanes = std::max(1, 4 / (w.ranks * threads));
  std::vector<std::thread> pool;
  for (int l = 0; l < lanes; ++l) {
    pool.emplace_back([&] {
      for (std::size_t j; (j = next.fetch_add(1)) < jobs.size();) {
        Job& job = jobs[j];
        JobContext ctx;
        ctx.owns_process_globals = false;
        std::string newick, error;
        double lnl = 0.0;
        std::mutex mu;
        try {
          mpi::run_thread_ranks(w.ranks, [&](mpi::Comm& comm) {
            std::string nwk;
            double best = 0.0;
            if (w.mode == 'd') {
              MultistartOptions o;
              o.searches = 1;
              o.num_threads = threads;
              const auto r = run_multistart_ml(ctx, comm, *job.patterns, o);
              nwk = r.best_tree_newick;
              best = r.best_lnl;
            } else {
              HybridOptions o;
              o.analysis.num_threads = threads;
              o.compute_support = true;
              if (w.mode == 'a') {
                o.analysis.specified_bootstraps = w.bootstraps;
                o.run_bootstopping = true;
              } else {
                const serve::JobRequest req = served_request(w, job.raw);
                o.analysis.specified_bootstraps = req.bootstraps;
                o.analysis.fast.max_rounds = req.fast_rounds;
                o.analysis.slow.max_rounds = req.slow_rounds;
                o.analysis.thorough.max_rounds = req.thorough_rounds;
              }
              const auto r = run_hybrid_comprehensive(ctx, comm, *job.patterns, o);
              nwk = r.best_tree_newick;
              best = r.best_lnl;
            }
            if (comm.rank() == 0) {
              std::lock_guard<std::mutex> lock(mu);
              newick = nwk;
              lnl = best;
            }
          });
        } catch (const std::exception& e) {
          error = e.what();
        }
        job.op.input = job.id;
        job.op.lnl = lnl;
        job.op.newick = newick;
        job.op.error = error;
        job.op.taxa_hash = taxa_hash_of_newick(newick);
        job.op.taxa_ok = job.op.taxa_hash == taxa_hash_of_names(job.patterns->names());
      }
    });
  }
  for (auto& t : pool) t.join();
  std::vector<OpResult> ops;
  for (const Job& j : jobs) ops.push_back(j.op);
  print_record(a, "\"ops\":" + ops_json(ops));
  return 0;
}

// Untraced and traced operations, then the probes. Spans and obs are on
// only during the traced operations.
int mode_traced(const Args& a, const Workload& w) {
  if (!trace::available()) {
    std::fprintf(stderr, "error: --mode traced needs e2ebench_traced\n");
    return 2;
  }
  LayerInputs li;
  li.w = &w;
  std::vector<OpResult> ops;
  std::string check;
  auto begin_tracing = [] {
    obs::reset();
    trace::reset();
    obs::set_enabled(true);
    trace::set_recording(true);
  };
  auto end_tracing = [] {
    trace::set_recording(false);
    obs::set_enabled(false);
  };
  if (w.mode == 's') {
    const std::string sock = a.scratch + "/e2e.sock";
    const ServedInputs in = served_inputs(w, a.seed, kFreshPool);
    const double share = std::max(1.0, a.seconds / 2.0);
    ServedLoop plain = served_loop(w, in, a.seed, share, sock);
    begin_tracing();
    ServedLoop traced = served_loop(w, in, a.seed + 1, share, sock);
    li.ranks.push_back(RankObs{});
    li.ranks[0].trace = trace::collect();
    li.ranks[0].counters = obs::counters_snapshot();
    li.ranks[0].crew_job = obs::hist_snapshot(obs::Hist::kCrewJobNs);
    li.ranks[0].collective = obs::hist_snapshot(obs::Hist::kCollectiveNs);
    li.ranks[0].phases = obs::run_phases().phases();
    li.admit = obs::hist_snapshot(obs::Hist::kAdmissionNs);
    li.queue = obs::hist_snapshot(obs::Hist::kQueueWaitNs);
    li.exec = obs::hist_snapshot(obs::Hist::kExecNs);
    end_tracing();
    li.cache = traced.cache;
    std::map<std::string, HybridResult> oneshots;
    check_served(w, in, plain.ops, &oneshots);
    check_served(w, in, traced.ops, &oneshots);
    std::vector<double> pw, tw;
    for (const auto& op : plain.ops) pw.push_back(op.wall_s);
    for (const auto& op : traced.ops) tw.push_back(op.wall_s);
    li.wall_untraced = median(pw);
    li.wall_traced = median(tw);
    li.per_op = static_cast<double>(std::max<std::size_t>(1, traced.ops.size()));
    li.check_wall_s = traced.loop_wall_s;
    ops = plain.ops;
    ops.insert(ops.end(), traced.ops.begin(), traced.ops.end());
    // Probes on the first hot alignment and its one-shot result; the stage
    // split comes from that one-shot run (JobResult carries no stage times).
    std::istringstream text(in.texts[0]);
    auto patterns = std::make_shared<const PatternAlignment>(
        PatternAlignment::compress(read_phylip(text)));
    auto ref = oneshots.find(in.ids[0]);
    if (ref == oneshots.end())
      ref = oneshots
                .emplace(in.ids[0],
                         one_shot_of(served_request(w, in.texts[0])))
                .first;
    li.stage = ref->second.rank_times;
    li.patterns = patterns.get();
    li.raw = in.texts[0];
    li.newick = ref->second.best_tree_newick;
    const auto parse = li.ranks[0].trace.spans.find("bio.read_phylip");
    const auto compress =
        li.ranks[0].trace.spans.find("bio.PatternAlignment::compress");
    if (parse != li.ranks[0].trace.spans.end())
      li.parse_s = static_cast<double>(parse->second.incl_ns) / 1e9 /
                   static_cast<double>(std::max<std::uint64_t>(1, parse->second.count));
    if (compress != li.ranks[0].trace.spans.end())
      li.compress_s = static_cast<double>(compress->second.incl_ns) / 1e9 /
                      static_cast<double>(std::max<std::uint64_t>(1, compress->second.count));
    check = trace_check_json(li);
    print_record(a, "\"ops\":" + ops_json(ops) + ",\"per_layer\":" +
                        layer_metrics(li) + ",\"phases\":" + phases_json(li) +
                        ",\"trace_check\":" + check);
    return 0;
  }

  // Untraced/traced pairs on the first input for the run length; the layer
  // split comes from the first traced operation (its counts repeat exactly).
  OneShotInputs in = one_shot_inputs(w, a.seed, a.scratch, {});
  const std::string id = in.ids[0];
  const RunConfig plain_cfg{&w, false, a.scratch};
  const RunConfig traced_cfg{&w, true, a.scratch};
  std::vector<double> plain_walls, traced_walls;
  Analysis traced;
  trace::Report setup;
  std::optional<PatternAlignment> patterns;
  const auto t0 = Clock::now();
  for (int pair = 0; pair == 0 || seconds_since(t0) < a.seconds; ++pair) {
    const Analysis plain = run_one_shot(plain_cfg, in.patterns[0], id);
    plain_walls.push_back(plain.op.wall_s);
    ops.push_back(plain.op);
    begin_tracing();
    double setup_s = 0.0;
    PatternAlignment p = setup_phase(in.paths[0], &setup_s);
    const trace::Report s = trace::collect();
    trace::reset();
    Analysis t = run_one_shot(traced_cfg, p, id);
    end_tracing();
    traced_walls.push_back(t.op.wall_s);
    ops.push_back(t.op);
    if (pair == 0) {
      traced = std::move(t);
      setup = s;
      patterns.emplace(std::move(p));
    }
  }
  const auto span_incl = [&](const char* name) {
    const auto it = setup.spans.find(name);
    return it == setup.spans.end() ? 0.0
                                   : static_cast<double>(it->second.incl_ns) / 1e9;
  };
  li.parse_s = span_incl("bio.read_phylip");
  li.compress_s = span_incl("bio.PatternAlignment::compress");
  li.ranks = std::move(traced.ranks);
  li.stage = traced.stage;
  li.patterns = &*patterns;
  li.raw = read_file(in.paths[0]);
  li.newick = traced.op.newick;
  li.wall_untraced = median(plain_walls);
  li.wall_traced = median(traced_walls);
  li.check_wall_s = traced.op.wall_s;
  check = trace_check_json(li);
  print_record(a, "\"ops\":" + ops_json(ops) + ",\"per_layer\":" +
                      layer_metrics(li) + ",\"phases\":" + phases_json(li) +
                        ",\"trace_check\":" + check);
  return 0;
}

bool parse_args(int argc, char** argv, Args* a) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string k = argv[i], v = argv[i + 1];
    if (k == "--workload") a->workload = v;
    else if (k == "--seed") a->seed = std::stoull(v);
    else if (k == "--seconds") a->seconds = std::stod(v);
    else if (k == "--scratch") a->scratch = v;
    else if (k == "--mode") a->mode = v;

    else if (k == "--inputs") {
      std::istringstream s(v);
      for (std::string id; std::getline(s, id, ',');)
        if (!id.empty()) a->inputs.push_back(id);
    } else {
      return false;
    }
  }
  return (argc % 2) == 1 && !a->workload.empty();
}

}  // namespace
}  // namespace e2e

int main(int argc, char** argv) {
  using namespace e2e;
#if !defined(__OPTIMIZE__)
  std::fprintf(stderr, "error: refusing to measure a non-optimised build\n");
  return 3;
#endif
  const std::string build_type = E2E_BUILD_TYPE;
  if (build_type != "Release" && build_type != "RelWithDebInfo") {
    std::fprintf(stderr, "error: refusing to measure a %s build\n",
                 build_type.c_str());
    return 3;
  }
  Args a;
  if (!parse_args(argc, argv, &a)) {
    std::fprintf(stderr,
                 "usage: %s --workload W --seed S --seconds N --scratch DIR "
                 "[--mode run|reference|traced] [--inputs ID,...]\n",
                 argv[0]);
    return 2;
  }
  const Workload* w = find_workload(a.workload);
  if (w == nullptr) {
    std::fprintf(stderr, "error: unknown workload %s\n", a.workload.c_str());
    return 2;
  }
  std::filesystem::create_directories(a.scratch);
  // What raxh does before any work: flight recorder on with crash handlers,
  // kernel auto-selected, repeats at their default (neither is touched).
  raxh::obs::flight::set_dump_dir(a.scratch + "/blackbox");
  raxh::obs::flight::install_crash_handlers();
  try {
    if (a.mode == "run") return mode_run(a, *w);
    if (a.mode == "reference") return mode_reference(a, *w);
    if (a.mode == "traced") return mode_traced(a, *w);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
  std::fprintf(stderr, "error: unknown mode %s\n", a.mode.c_str());
  return 2;
}
