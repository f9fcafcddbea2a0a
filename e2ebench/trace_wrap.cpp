// The traced driver's span recorder and its interposers.
//
// Linked with -Wl,--wrap=<symbol> for every symbol below (CMakeLists.txt):
// the linker routes each call that crosses an object-file boundary to
// __wrap_<symbol>, which records a span and calls __real_<symbol>. Calls a
// module makes inside its own source file are not interposed; their time
// stays in the enclosing span. Each wrapper is declared with the mangled
// name as an asm label, so a signature change in the program breaks the
// link instead of silently recording nothing.
#include <algorithm>
#include <array>
#include <atomic>
#include <chrono>
#include <functional>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <unordered_map>
#include <vector>

#include "bio/alignment.h"
#include "bio/patterns.h"
#include "core/analyses.h"
#include "core/comprehensive.h"
#include "core/hybrid.h"
#include "likelihood/engine.h"
#include "minimpi/comm.h"
#include "parallel/workforce.h"
#include "search/spr.h"
#include "trace.h"
#include "tree/bipartition.h"
#include "tree/bootstopping.h"
#include "tree/tree.h"
#include "util/prng.h"

namespace e2e::trace {

namespace {

enum Layer { kBio, kLikelihood, kModel, kParallel, kSearch, kCore, kMinimpi,
             kTree, kNumLayers };
constexpr std::array<const char*, kNumLayers> kLayerNames = {
    "bio", "likelihood", "model", "parallel", "search", "core", "minimpi",
    "tree"};

enum Name {
  kParse, kCompress,
  kEvaluate, kOptimizeBranch, kSmoothBranches,
  kOptimizeAll, kOptimizeGtr, kOptimizeAlpha, kOptimizeCatRates,
  kWorkforceRun,
  kSprRun, kParsimony,
  kMultistart, kHybrid, kRankShare,
  kBarrier, kBcast, kAllreduce, kGather,
  kSupport, kConsensus, kBootstop,
  kNumNames
};
struct NameInfo {
  const char* name;
  Layer layer;
};
constexpr std::array<NameInfo, kNumNames> kNames = {{
    {"read_phylip", kBio},
    {"PatternAlignment::compress", kBio},
    {"LikelihoodEngine::evaluate", kLikelihood},
    {"LikelihoodEngine::optimize_branch", kLikelihood},
    {"LikelihoodEngine::smooth_branches", kLikelihood},
    {"LikelihoodEngine::optimize_all", kModel},
    {"LikelihoodEngine::optimize_gtr", kModel},
    {"LikelihoodEngine::optimize_alpha", kModel},
    {"LikelihoodEngine::optimize_cat_rates", kModel},
    {"Workforce::run", kParallel},
    {"SprSearch::run", kSearch},
    {"randomized_stepwise_addition", kSearch},
    {"run_multistart_ml", kCore},
    {"run_hybrid_comprehensive", kCore},
    {"run_comprehensive_rank", kCore},
    {"Comm::barrier", kMinimpi},
    {"Comm::bcast", kMinimpi},
    {"Comm::allreduce", kMinimpi},
    {"Comm::gather", kMinimpi},
    {"annotate_support", kTree},
    {"consensus", kTree},
    {"frequency_criterion", kTree},
}};

// Raw spans kept per thread for the nesting check; aggregates stay exact
// past the cap.
constexpr std::size_t kRawCap = std::size_t{1} << 18;

std::uint64_t now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

struct Frame {
  int name;
  std::uint64_t id;
  std::uint64_t start;
  std::uint64_t child_ns;
};

struct RawSpan {
  std::uint64_t id;
  std::uint64_t parent;  // 0 = root on this thread
  std::uint64_t start;
  std::uint64_t end;
};

// One per thread that ever recorded. The mutex is uncontended while the
// thread records; collect() takes it to read a consistent copy.
struct ThreadState {
  std::mutex mu;
  std::uint64_t index = 0;
  std::uint64_t next_seq = 1;
  std::vector<Frame> stack;
  std::array<Totals, kNumNames> spans{};
  std::array<Totals, kNumLayers> layers{};
  std::array<int, kNumNames> name_depth{};
  std::array<int, kNumLayers> layer_depth{};
  std::vector<RawSpan> raw;
  std::uint64_t raw_dropped = 0;
  std::uint64_t negative_self = 0;
  long moves_tried = 0;
  long moves_accepted = 0;

  void clear() {
    spans = {};
    layers = {};
    raw.clear();
    raw_dropped = 0;
    negative_self = 0;
    moves_tried = 0;
    moves_accepted = 0;
  }
};

std::atomic<bool> g_recording{false};

struct Registry {
  std::mutex mu;
  std::vector<std::unique_ptr<ThreadState>> threads;
};

Registry& registry() {
  static Registry* r = new Registry;  // outlives every thread
  return *r;
}

ThreadState& thread_state() {
  thread_local ThreadState* state = [] {
    Registry& reg = registry();
    std::lock_guard<std::mutex> lock(reg.mu);
    reg.threads.push_back(std::make_unique<ThreadState>());
    reg.threads.back()->index = reg.threads.size();
    return reg.threads.back().get();
  }();
  return *state;
}

void push(ThreadState& st, int name) {
  const Layer layer = kNames[static_cast<std::size_t>(name)].layer;
  std::lock_guard<std::mutex> lock(st.mu);
  const std::uint64_t id = (st.index << 40) | st.next_seq++;
  ++st.name_depth[static_cast<std::size_t>(name)];
  ++st.layer_depth[layer];
  st.stack.push_back(Frame{name, id, now_ns(), 0});
}

void pop(ThreadState& st) {
  const std::uint64_t end = now_ns();
  std::lock_guard<std::mutex> lock(st.mu);
  const Frame f = st.stack.back();
  st.stack.pop_back();
  const auto n = static_cast<std::size_t>(f.name);
  const Layer layer = kNames[n].layer;
  const std::uint64_t dur = end - f.start;
  std::uint64_t self = dur - f.child_ns;
  if (f.child_ns > dur) {
    ++st.negative_self;
    self = 0;
  }
  if (!st.stack.empty()) st.stack.back().child_ns += dur;

  Totals& s = st.spans[n];
  ++s.count;
  s.self_ns += self;
  if (--st.name_depth[n] == 0) s.incl_ns += dur;
  Totals& l = st.layers[layer];
  ++l.count;
  l.self_ns += self;
  if (--st.layer_depth[layer] == 0) l.incl_ns += dur;

  if (st.raw.size() < kRawCap)
    st.raw.push_back(RawSpan{f.id, st.stack.empty() ? 0 : st.stack.back().id,
                             f.start, end});
  else
    ++st.raw_dropped;
}

// RAII span around one interposed call. Remembers whether it pushed, so
// toggling recording mid-call cannot unbalance the stack.
class Scope {
 public:
  explicit Scope(int name)
      : st_(g_recording.load(std::memory_order_relaxed) ? &thread_state()
                                                        : nullptr) {
    if (st_) push(*st_, name);
  }
  ~Scope() {
    if (st_) pop(*st_);
  }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

 private:
  ThreadState* st_;
};

}  // namespace

bool available() { return true; }

void set_recording(bool on) {
  g_recording.store(on, std::memory_order_relaxed);
}

void reset() {
  Registry& reg = registry();
  std::lock_guard<std::mutex> lock(reg.mu);
  for (auto& t : reg.threads) {
    std::lock_guard<std::mutex> tl(t->mu);
    t->clear();
  }
}

Report collect() {
  Report report;
  Registry& reg = registry();
  std::lock_guard<std::mutex> lock(reg.mu);
  for (auto& t : reg.threads) {
    std::lock_guard<std::mutex> tl(t->mu);
    std::uint64_t thread_self = 0;
    for (std::size_t n = 0; n < kNumNames; ++n) {
      const Totals& s = t->spans[n];
      if (s.count == 0) continue;
      Totals& into = report.spans[std::string(kLayerNames[kNames[n].layer]) +
                                  "." + kNames[n].name];
      into.count += s.count;
      into.incl_ns += s.incl_ns;
      into.self_ns += s.self_ns;
      thread_self += s.self_ns;
    }
    for (std::size_t l = 0; l < kNumLayers; ++l) {
      const Totals& s = t->layers[l];
      if (s.count == 0) continue;
      Totals& into = report.layers[kLayerNames[l]];
      into.count += s.count;
      into.incl_ns += s.incl_ns;
      into.self_ns += s.self_ns;
    }
    report.max_thread_self_ns =
        std::max(report.max_thread_self_ns, thread_self);
    report.moves_tried += t->moves_tried;
    report.moves_accepted += t->moves_accepted;
    report.raw_spans += t->raw.size();
    report.raw_dropped += t->raw_dropped;
    report.nest_violations += t->negative_self;

    // Every kept span whose parent is also kept lies inside it.
    std::unordered_map<std::uint64_t, const RawSpan*> by_id;
    by_id.reserve(t->raw.size());
    for (const RawSpan& r : t->raw) by_id.emplace(r.id, &r);
    for (const RawSpan& r : t->raw) {
      if (r.parent == 0) continue;
      const auto it = by_id.find(r.parent);
      if (it == by_id.end()) continue;
      if (r.start < it->second->start || r.end > it->second->end)
        ++report.nest_violations;
    }
  }
  return report;
}

// --- interposers -----------------------------------------------------------

namespace wrap {

using raxh::Alignment;
using raxh::BipartitionTable;
using raxh::BootstopOptions;
using raxh::BootstopResult;
using raxh::ComprehensiveOptions;
using raxh::HybridOptions;
using raxh::HybridResult;
using raxh::JobContext;
using raxh::Lcg;
using raxh::LikelihoodEngine;
using raxh::MultistartOptions;
using raxh::MultistartResult;
using raxh::PatternAlignment;
using raxh::RankReport;
using raxh::SprSearch;
using raxh::Tree;
using raxh::Workforce;
using raxh::mpi::Comm;
using Names = std::vector<std::string>;
using Fn0 = std::function<void()>;

#define E2E_INTERPOSE(ret, sym, params)                 \
  ret real_##sym params __asm__("__real_" #sym);        \
  ret wrap_##sym params __asm__("__wrap_" #sym);

// clang-format off
E2E_INTERPOSE(void, _ZN4raxh9Workforce3runERKSt8functionIFviiEE,
              (Workforce* self, const std::function<void(int, int)>& job))
E2E_INTERPOSE(double, _ZN4raxh16LikelihoodEngine8evaluateERKNS_4TreeEi,
              (LikelihoodEngine* self, const Tree& tree, int rec))
E2E_INTERPOSE(double, _ZN4raxh16LikelihoodEngine15optimize_branchERNS_4TreeEi,
              (LikelihoodEngine* self, Tree& tree, int rec))
E2E_INTERPOSE(double, _ZN4raxh16LikelihoodEngine15smooth_branchesERNS_4TreeEi,
              (LikelihoodEngine* self, Tree& tree, int passes))
E2E_INTERPOSE(double, _ZN4raxh16LikelihoodEngine12optimize_allERNS_4TreeEdi,
              (LikelihoodEngine* self, Tree& tree, double eps, int rounds))
E2E_INTERPOSE(double, _ZN4raxh16LikelihoodEngine12optimize_gtrERNS_4TreeEd,
              (LikelihoodEngine* self, Tree& tree, double eps))
E2E_INTERPOSE(double, _ZN4raxh16LikelihoodEngine14optimize_alphaERNS_4TreeEd,
              (LikelihoodEngine* self, Tree& tree, double eps))
E2E_INTERPOSE(double, _ZN4raxh16LikelihoodEngine18optimize_cat_ratesERNS_4TreeE,
              (LikelihoodEngine* self, Tree& tree))
E2E_INTERPOSE(double, _ZN4raxh9SprSearch3runERNS_4TreeE,
              (SprSearch* self, Tree& tree))
E2E_INTERPOSE(Tree, _ZN4raxh28randomized_stepwise_additionERKNS_16PatternAlignmentESt4spanIKiLm18446744073709551615EERNS_3LcgE,
              (const PatternAlignment& patterns, std::span<const int> weights, Lcg& rng))
E2E_INTERPOSE(MultistartResult, _ZN4raxh17run_multistart_mlERNS_3mpi4CommERKNS_16PatternAlignmentERKNS_17MultistartOptionsE,
              (Comm& comm, const PatternAlignment& patterns, const MultistartOptions& options))
E2E_INTERPOSE(HybridResult, _ZN4raxh24run_hybrid_comprehensiveERNS_3mpi4CommERKNS_16PatternAlignmentERKNS_13HybridOptionsE,
              (Comm& comm, const PatternAlignment& patterns, const HybridOptions& options))
E2E_INTERPOSE(HybridResult, _ZN4raxh24run_hybrid_comprehensiveERKNS_10JobContextERNS_3mpi4CommERKNS_16PatternAlignmentERKNS_13HybridOptionsE,
              (const JobContext& ctx, Comm& comm, const PatternAlignment& patterns, const HybridOptions& options))
E2E_INTERPOSE(RankReport, _ZN4raxh22run_comprehensive_rankERKNS_10JobContextERKNS_16PatternAlignmentERKNS_20ComprehensiveOptionsEiiPNS_9WorkforceERKSt8functionIFvvEERKSB_IFbdEESF_,
              (const JobContext& ctx, const PatternAlignment& patterns, const ComprehensiveOptions& options, int rank, int nranks, Workforce* crew, const Fn0& after_bootstraps, const std::function<bool(double)>& select_thorough, const Fn0& on_unit))
E2E_INTERPOSE(void, _ZN4raxh3mpi4Comm7barrierEv, (Comm* self))
E2E_INTERPOSE(void, _ZN4raxh3mpi4Comm5bcastERSt6vectorIhSaIhEEi,
              (Comm* self, raxh::mpi::Bytes& data, int root))
E2E_INTERPOSE(void, _ZN4raxh3mpi4Comm12bcast_stringERNSt7__cxx1112basic_stringIcSt11char_traitsIcESaIcEEEi,
              (Comm* self, std::string& data, int root))
E2E_INTERPOSE(Comm::MaxLoc, _ZN4raxh3mpi4Comm16allreduce_maxlocEd, (Comm* self, double value))
E2E_INTERPOSE(double, _ZN4raxh3mpi4Comm13allreduce_sumEd, (Comm* self, double value))
E2E_INTERPOSE(double, _ZN4raxh3mpi4Comm13allreduce_maxEd, (Comm* self, double value))
E2E_INTERPOSE(long, _ZN4raxh3mpi4Comm18allreduce_sum_longEl, (Comm* self, long value))
E2E_INTERPOSE(std::vector<std::vector<double>>, _ZN4raxh3mpi4Comm14gather_doublesERKSt6vectorIdSaIdEEi,
              (Comm* self, const std::vector<double>& mine, int root))
E2E_INTERPOSE(std::vector<std::string>, _ZN4raxh3mpi4Comm14gather_stringsERKNSt7__cxx1112basic_stringIcSt11char_traitsIcESaIcEEEi,
              (Comm* self, const std::string& mine, int root))
E2E_INTERPOSE(std::string, _ZN4raxh16annotate_supportERKNS_4TreeERKSt6vectorINSt7__cxx1112basic_stringIcSt11char_traitsIcESaIcEEESaIS9_EERKNS_16BipartitionTableE,
              (const Tree& tree, const Names& names, const BipartitionTable& table))
E2E_INTERPOSE(std::vector<double>, _ZN4raxh13edge_supportsERKNS_4TreeERKNS_16BipartitionTableE,
              (const Tree& tree, const BipartitionTable& table))
E2E_INTERPOSE(std::string, _ZN4raxh23majority_rule_consensusERKNS_16BipartitionTableERKSt6vectorINSt7__cxx1112basic_stringIcSt11char_traitsIcESaIcEEESaIS9_EEd,
              (const BipartitionTable& table, const Names& names, double threshold))
E2E_INTERPOSE(std::string, _ZN4raxh27extended_majority_consensusERKNS_16BipartitionTableERKSt6vectorINSt7__cxx1112basic_stringIcSt11char_traitsIcESaIcEEESaIS9_EE,
              (const BipartitionTable& table, const Names& names))
E2E_INTERPOSE(BootstopResult, _ZN4raxh19frequency_criterionERKSt6vectorINS_4TreeESaIS1_EERKNS_15BootstopOptionsE,
              (const std::vector<Tree>& replicates, const BootstopOptions& options))
E2E_INTERPOSE(Alignment, _ZN4raxh11read_phylipERSi, (std::istream& in))
E2E_INTERPOSE(Alignment, _ZN4raxh16read_phylip_fileERKNSt7__cxx1112basic_stringIcSt11char_traitsIcESaIcEEE,
              (const std::string& path))
E2E_INTERPOSE(PatternAlignment, _ZN4raxh16PatternAlignment8compressERKNS_9AlignmentE,
              (const Alignment& alignment))
// clang-format on

#undef E2E_INTERPOSE

void wrap__ZN4raxh9Workforce3runERKSt8functionIFviiEE(
    Workforce* self, const std::function<void(int, int)>& job) {
  Scope s(kWorkforceRun);
  real__ZN4raxh9Workforce3runERKSt8functionIFviiEE(self, job);
}

double wrap__ZN4raxh16LikelihoodEngine8evaluateERKNS_4TreeEi(
    LikelihoodEngine* self, const Tree& tree, int rec) {
  Scope s(kEvaluate);
  return real__ZN4raxh16LikelihoodEngine8evaluateERKNS_4TreeEi(self, tree, rec);
}

double wrap__ZN4raxh16LikelihoodEngine15optimize_branchERNS_4TreeEi(
    LikelihoodEngine* self, Tree& tree, int rec) {
  Scope s(kOptimizeBranch);
  return real__ZN4raxh16LikelihoodEngine15optimize_branchERNS_4TreeEi(
      self, tree, rec);
}

double wrap__ZN4raxh16LikelihoodEngine15smooth_branchesERNS_4TreeEi(
    LikelihoodEngine* self, Tree& tree, int passes) {
  Scope s(kSmoothBranches);
  return real__ZN4raxh16LikelihoodEngine15smooth_branchesERNS_4TreeEi(
      self, tree, passes);
}

double wrap__ZN4raxh16LikelihoodEngine12optimize_allERNS_4TreeEdi(
    LikelihoodEngine* self, Tree& tree, double eps, int rounds) {
  Scope s(kOptimizeAll);
  return real__ZN4raxh16LikelihoodEngine12optimize_allERNS_4TreeEdi(
      self, tree, eps, rounds);
}

double wrap__ZN4raxh16LikelihoodEngine12optimize_gtrERNS_4TreeEd(
    LikelihoodEngine* self, Tree& tree, double eps) {
  Scope s(kOptimizeGtr);
  return real__ZN4raxh16LikelihoodEngine12optimize_gtrERNS_4TreeEd(self, tree,
                                                                   eps);
}

double wrap__ZN4raxh16LikelihoodEngine14optimize_alphaERNS_4TreeEd(
    LikelihoodEngine* self, Tree& tree, double eps) {
  Scope s(kOptimizeAlpha);
  return real__ZN4raxh16LikelihoodEngine14optimize_alphaERNS_4TreeEd(
      self, tree, eps);
}

double wrap__ZN4raxh16LikelihoodEngine18optimize_cat_ratesERNS_4TreeE(
    LikelihoodEngine* self, Tree& tree) {
  Scope s(kOptimizeCatRates);
  return real__ZN4raxh16LikelihoodEngine18optimize_cat_ratesERNS_4TreeE(self,
                                                                        tree);
}

double wrap__ZN4raxh9SprSearch3runERNS_4TreeE(SprSearch* self, Tree& tree) {
  double lnl = 0.0;
  {
    Scope s(kSprRun);
    lnl = real__ZN4raxh9SprSearch3runERNS_4TreeE(self, tree);
  }
  if (g_recording.load(std::memory_order_relaxed)) {
    ThreadState& st = thread_state();
    std::lock_guard<std::mutex> lock(st.mu);
    st.moves_tried += self->stats().moves_tried;
    st.moves_accepted += self->stats().moves_accepted;
  }
  return lnl;
}

Tree wrap__ZN4raxh28randomized_stepwise_additionERKNS_16PatternAlignmentESt4spanIKiLm18446744073709551615EERNS_3LcgE(
    const PatternAlignment& patterns, std::span<const int> weights, Lcg& rng) {
  Scope s(kParsimony);
  return real__ZN4raxh28randomized_stepwise_additionERKNS_16PatternAlignmentESt4spanIKiLm18446744073709551615EERNS_3LcgE(
      patterns, weights, rng);
}

MultistartResult wrap__ZN4raxh17run_multistart_mlERNS_3mpi4CommERKNS_16PatternAlignmentERKNS_17MultistartOptionsE(
    Comm& comm, const PatternAlignment& patterns,
    const MultistartOptions& options) {
  Scope s(kMultistart);
  return real__ZN4raxh17run_multistart_mlERNS_3mpi4CommERKNS_16PatternAlignmentERKNS_17MultistartOptionsE(
      comm, patterns, options);
}

HybridResult wrap__ZN4raxh24run_hybrid_comprehensiveERNS_3mpi4CommERKNS_16PatternAlignmentERKNS_13HybridOptionsE(
    Comm& comm, const PatternAlignment& patterns, const HybridOptions& options) {
  Scope s(kHybrid);
  return real__ZN4raxh24run_hybrid_comprehensiveERNS_3mpi4CommERKNS_16PatternAlignmentERKNS_13HybridOptionsE(
      comm, patterns, options);
}

HybridResult wrap__ZN4raxh24run_hybrid_comprehensiveERKNS_10JobContextERNS_3mpi4CommERKNS_16PatternAlignmentERKNS_13HybridOptionsE(
    const JobContext& ctx, Comm& comm, const PatternAlignment& patterns,
    const HybridOptions& options) {
  Scope s(kHybrid);
  return real__ZN4raxh24run_hybrid_comprehensiveERKNS_10JobContextERNS_3mpi4CommERKNS_16PatternAlignmentERKNS_13HybridOptionsE(
      ctx, comm, patterns, options);
}

RankReport wrap__ZN4raxh22run_comprehensive_rankERKNS_10JobContextERKNS_16PatternAlignmentERKNS_20ComprehensiveOptionsEiiPNS_9WorkforceERKSt8functionIFvvEERKSB_IFbdEESF_(
    const JobContext& ctx, const PatternAlignment& patterns,
    const ComprehensiveOptions& options, int rank, int nranks, Workforce* crew,
    const Fn0& after_bootstraps,
    const std::function<bool(double)>& select_thorough, const Fn0& on_unit) {
  Scope s(kRankShare);
  return real__ZN4raxh22run_comprehensive_rankERKNS_10JobContextERKNS_16PatternAlignmentERKNS_20ComprehensiveOptionsEiiPNS_9WorkforceERKSt8functionIFvvEERKSB_IFbdEESF_(
      ctx, patterns, options, rank, nranks, crew, after_bootstraps,
      select_thorough, on_unit);
}

void wrap__ZN4raxh3mpi4Comm7barrierEv(Comm* self) {
  Scope s(kBarrier);
  real__ZN4raxh3mpi4Comm7barrierEv(self);
}

void wrap__ZN4raxh3mpi4Comm5bcastERSt6vectorIhSaIhEEi(Comm* self,
                                                      raxh::mpi::Bytes& data,
                                                      int root) {
  Scope s(kBcast);
  real__ZN4raxh3mpi4Comm5bcastERSt6vectorIhSaIhEEi(self, data, root);
}

void wrap__ZN4raxh3mpi4Comm12bcast_stringERNSt7__cxx1112basic_stringIcSt11char_traitsIcESaIcEEEi(
    Comm* self, std::string& data, int root) {
  Scope s(kBcast);
  real__ZN4raxh3mpi4Comm12bcast_stringERNSt7__cxx1112basic_stringIcSt11char_traitsIcESaIcEEEi(
      self, data, root);
}

Comm::MaxLoc wrap__ZN4raxh3mpi4Comm16allreduce_maxlocEd(Comm* self,
                                                        double value) {
  Scope s(kAllreduce);
  return real__ZN4raxh3mpi4Comm16allreduce_maxlocEd(self, value);
}

double wrap__ZN4raxh3mpi4Comm13allreduce_sumEd(Comm* self, double value) {
  Scope s(kAllreduce);
  return real__ZN4raxh3mpi4Comm13allreduce_sumEd(self, value);
}

double wrap__ZN4raxh3mpi4Comm13allreduce_maxEd(Comm* self, double value) {
  Scope s(kAllreduce);
  return real__ZN4raxh3mpi4Comm13allreduce_maxEd(self, value);
}

long wrap__ZN4raxh3mpi4Comm18allreduce_sum_longEl(Comm* self, long value) {
  Scope s(kAllreduce);
  return real__ZN4raxh3mpi4Comm18allreduce_sum_longEl(self, value);
}

std::vector<std::vector<double>> wrap__ZN4raxh3mpi4Comm14gather_doublesERKSt6vectorIdSaIdEEi(
    Comm* self, const std::vector<double>& mine, int root) {
  Scope s(kGather);
  return real__ZN4raxh3mpi4Comm14gather_doublesERKSt6vectorIdSaIdEEi(self, mine,
                                                                   root);
}

std::vector<std::string> wrap__ZN4raxh3mpi4Comm14gather_stringsERKNSt7__cxx1112basic_stringIcSt11char_traitsIcESaIcEEEi(
    Comm* self, const std::string& mine, int root) {
  Scope s(kGather);
  return real__ZN4raxh3mpi4Comm14gather_stringsERKNSt7__cxx1112basic_stringIcSt11char_traitsIcESaIcEEEi(
      self, mine, root);
}

std::string wrap__ZN4raxh16annotate_supportERKNS_4TreeERKSt6vectorINSt7__cxx1112basic_stringIcSt11char_traitsIcESaIcEEESaIS9_EERKNS_16BipartitionTableE(
    const Tree& tree, const Names& names, const BipartitionTable& table) {
  Scope s(kSupport);
  return real__ZN4raxh16annotate_supportERKNS_4TreeERKSt6vectorINSt7__cxx1112basic_stringIcSt11char_traitsIcESaIcEEESaIS9_EERKNS_16BipartitionTableE(
      tree, names, table);
}

std::vector<double> wrap__ZN4raxh13edge_supportsERKNS_4TreeERKNS_16BipartitionTableE(
    const Tree& tree, const BipartitionTable& table) {
  Scope s(kSupport);
  return real__ZN4raxh13edge_supportsERKNS_4TreeERKNS_16BipartitionTableE(tree,
                                                                         table);
}

std::string wrap__ZN4raxh23majority_rule_consensusERKNS_16BipartitionTableERKSt6vectorINSt7__cxx1112basic_stringIcSt11char_traitsIcESaIcEEESaIS9_EEd(
    const BipartitionTable& table, const Names& names, double threshold) {
  Scope s(kConsensus);
  return real__ZN4raxh23majority_rule_consensusERKNS_16BipartitionTableERKSt6vectorINSt7__cxx1112basic_stringIcSt11char_traitsIcESaIcEEESaIS9_EEd(
      table, names, threshold);
}

std::string wrap__ZN4raxh27extended_majority_consensusERKNS_16BipartitionTableERKSt6vectorINSt7__cxx1112basic_stringIcSt11char_traitsIcESaIcEEESaIS9_EE(
    const BipartitionTable& table, const Names& names) {
  Scope s(kConsensus);
  return real__ZN4raxh27extended_majority_consensusERKNS_16BipartitionTableERKSt6vectorINSt7__cxx1112basic_stringIcSt11char_traitsIcESaIcEEESaIS9_EE(
      table, names);
}

BootstopResult wrap__ZN4raxh19frequency_criterionERKSt6vectorINS_4TreeESaIS1_EERKNS_15BootstopOptionsE(
    const std::vector<Tree>& replicates, const BootstopOptions& options) {
  Scope s(kBootstop);
  return real__ZN4raxh19frequency_criterionERKSt6vectorINS_4TreeESaIS1_EERKNS_15BootstopOptionsE(
      replicates, options);
}

Alignment wrap__ZN4raxh11read_phylipERSi(std::istream& in) {
  Scope s(kParse);
  return real__ZN4raxh11read_phylipERSi(in);
}

Alignment wrap__ZN4raxh16read_phylip_fileERKNSt7__cxx1112basic_stringIcSt11char_traitsIcESaIcEEE(
    const std::string& path) {
  Scope s(kParse);
  return real__ZN4raxh16read_phylip_fileERKNSt7__cxx1112basic_stringIcSt11char_traitsIcESaIcEEE(
      path);
}

PatternAlignment wrap__ZN4raxh16PatternAlignment8compressERKNS_9AlignmentE(
    const Alignment& alignment) {
  Scope s(kCompress);
  return real__ZN4raxh16PatternAlignment8compressERKNS_9AlignmentE(alignment);
}

}  // namespace wrap

}  // namespace e2e::trace
