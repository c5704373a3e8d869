// In-process helper of the sasynthd benchmark (perfbench/run.py).
//
//   perfbench_tool pool     unique conv layers of AlexNet, VGG16, GoogLeNet,
//                           one "<network> I,O,R,C,K,stride,groups" line each
//   perfbench_tool golden   reads request blocks on stdin and answers each
//                           in-process with `option bound_prune 0` and no
//                           DesignCache or SweepCache (the exhaustive
//                           oracle); responses go to stdout in input order
//   perfbench_tool layers   reads (request block, ok response) pairs on
//                           stdin and times the public serving calls on
//                           them; prints one JSON object
//   perfbench_tool burn     times the same CPU-bound loop on 1, 2 and 4
//                           threads; prints one JSON object
#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <iostream>
#include <set>
#include <string>
#include <thread>
#include <tuple>
#include <vector>

#include "core/design_io.h"
#include "core/perf_model.h"
#include "core/resource_model.h"
#include "fpga/freq_model.h"
#include "loopnest/conv_nest.h"
#include "nn/network.h"
#include "obs/metrics.h"
#include "serve/design_cache.h"
#include "serve/protocol.h"
#include "serve/server.h"

namespace {

using namespace sasynth;
using Clock = std::chrono::steady_clock;

/// Reads one `end`-terminated block from stdin; false at EOF.
bool read_block(std::string* out) {
  out->clear();
  std::string line;
  while (std::getline(std::cin, line)) {
    *out += line;
    *out += '\n';
    if (line == "end") return true;
  }
  return false;
}

int cmd_pool() {
  for (const char* name : {"alexnet", "vgg16", "googlenet"}) {
    Network net;
    parse_network_name(name, &net);
    std::set<std::tuple<std::int64_t, std::int64_t, std::int64_t,
                        std::int64_t, std::int64_t, std::int64_t,
                        std::int64_t>>
        seen;
    for (const ConvLayerDesc& l : net.layers) {
      if (!seen.insert({l.in_maps, l.out_maps, l.out_rows, l.out_cols,
                        l.kernel, l.stride, l.groups})
               .second) {
        continue;
      }
      std::printf("%s %lld,%lld,%lld,%lld,%lld,%lld,%lld\n", name,
                  static_cast<long long>(l.in_maps),
                  static_cast<long long>(l.out_maps),
                  static_cast<long long>(l.out_rows),
                  static_cast<long long>(l.out_cols),
                  static_cast<long long>(l.kernel),
                  static_cast<long long>(l.stride),
                  static_cast<long long>(l.groups));
    }
  }
  return 0;
}

int cmd_golden() {
  ServeOptions options;
  options.jobs = 1;
  options.cache_enabled = false;
  options.sweep_cache_capacity = 0;
  SynthServer server(options);
  std::string block;
  while (read_block(&block)) {
    const std::size_t end_pos = block.rfind("end\n");
    block.insert(end_pos, "option bound_prune 0\n");
    std::fputs(server.handle(block).c_str(), stdout);
    std::fflush(stdout);
  }
  return 0;
}

/// Mean nanoseconds per call of `fn` over `reps` calls.
template <typename Fn>
double mean_ns(int reps, Fn&& fn) {
  const Clock::time_point t0 = Clock::now();
  for (int i = 0; i < reps; ++i) fn();
  return std::chrono::duration<double, std::nano>(Clock::now() - t0).count() /
         reps;
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// The design blob of an ok response: its lines from the design magic up to
/// the perf line.
std::string design_blob(const std::string& response) {
  const std::size_t begin = response.find("sasynth-design v1\n");
  const std::size_t end = response.find("perf ", begin);
  if (begin == std::string::npos || end == std::string::npos) return "";
  return response.substr(begin, end - begin);
}

int cmd_layers() {
  constexpr int kReps = 20;
  obs::set_metrics_enabled(true);  // as in the daemon, where it is always on
  ServeOptions options;
  options.jobs = 1;
  SynthServer server(options);
  DesignCache cache("", 1 << 16);

  struct Pair {
    std::string block, response, canonical;
    ServeRequest request;
    LoopNest nest;
    DesignPoint design;
  };
  std::vector<Pair> pairs;
  std::string block, response;
  while (read_block(&block) && read_block(&response)) {
    const ParsedRequest parsed = parse_request_block(block);
    if (!parsed.ok) {
      std::fprintf(stderr, "perfbench_tool: bad request: %s\n",
                   parsed.error.c_str());
      return 1;
    }
    Pair p{block, response, canonical_request_text(parsed.request),
           parsed.request, build_conv_nest(parsed.request.layer), {}};
    const DesignLoadResult loaded = load_design_text(design_blob(response),
                                                     p.nest);
    if (!loaded.ok) {
      std::fprintf(stderr, "perfbench_tool: bad response design: %s\n",
                   loaded.error.c_str());
      return 1;
    }
    p.design = loaded.design;
    cache.insert(p.canonical, p.design);
    server.cache().insert(p.canonical, p.design);
    pairs.push_back(std::move(p));
  }
  if (pairs.empty()) {
    std::fprintf(stderr, "perfbench_tool: no request/response pairs\n");
    return 1;
  }

  std::vector<double> parse_ns, key_ns, lookup_ns, format_ns, handle_ns;
  std::int64_t mismatches = 0;
  for (const Pair& p : pairs) {
    parse_ns.push_back(mean_ns(kReps, [&] {
      const ParsedRequest r = parse_request_block(p.block);
      if (!r.ok) ++mismatches;
    }));
    std::uint64_t sink = 0;
    key_ns.push_back(mean_ns(kReps, [&] {
      sink += canonical_request_text(p.request).size() +
              request_cache_key(p.request);
    }));
    lookup_ns.push_back(mean_ns(kReps, [&] {
      DesignPoint found;
      if (!cache.lookup(p.canonical, p.nest, &found)) ++mismatches;
    }));
    const ResourceUsage resources = model_resources(
        p.nest, p.design, p.request.device, p.request.dtype);
    const double freq = pseudo_pnr_frequency_mhz(
        p.request.device, resources.report, p.design.signature());
    const PerfEstimate realized = estimate_performance(
        p.nest, p.design, p.request.device, p.request.dtype, freq);
    const double latency_ms = layer_latency_ms(p.request.layer, realized);
    std::string formatted;
    format_ns.push_back(mean_ns(kReps, [&] {
      formatted = format_ok_response(p.design, realized, resources.report,
                                     latency_ms);
    }));
    std::string handled;
    handle_ns.push_back(
        mean_ns(kReps, [&] { handled = server.handle(p.block); }));
    if (handled != p.response || formatted != p.response) ++mismatches;
    if (sink == 0) ++mismatches;  // keeps the key computation observable
  }
  std::printf(
      "{\"pairs\": %zu, \"mismatches\": %lld, \"parse_us\": %.6f, "
      "\"key_us\": %.6f, \"lookup_us\": %.6f, \"format_us\": %.6f, "
      "\"handle_us\": %.6f}\n",
      pairs.size(), static_cast<long long>(mismatches),
      median(parse_ns) * 1e-3, median(key_ns) * 1e-3,
      median(lookup_ns) * 1e-3, median(format_ns) * 1e-3,
      median(handle_ns) * 1e-3);
  return mismatches == 0 ? 0 : 1;
}

/// Wall seconds for `threads` threads each running the same integer loop.
double burn_seconds(int threads) {
  constexpr std::uint64_t kIters = 60'000'000;
  std::vector<std::uint64_t> out(static_cast<std::size_t>(threads));
  const Clock::time_point t0 = Clock::now();
  std::vector<std::thread> pool;
  for (int t = 0; t < threads; ++t) {
    pool.emplace_back([&out, t] {
      std::uint64_t x = 0x9e3779b97f4a7c15ULL + static_cast<std::uint64_t>(t);
      for (std::uint64_t i = 0; i < kIters; ++i) {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
      }
      out[static_cast<std::size_t>(t)] = x;
    });
  }
  for (std::thread& th : pool) th.join();
  const double s =
      std::chrono::duration<double>(Clock::now() - t0).count();
  std::uint64_t all = 0;
  for (std::uint64_t v : out) all ^= v;
  return all == 1 ? s + 1e-12 : s;  // consumes the results
}

int cmd_burn() {
  const double t1 = burn_seconds(1);
  const double t2 = burn_seconds(2);
  const double t4 = burn_seconds(4);
  std::printf(
      "{\"burn_1t_s\": %.4f, \"burn_2t_s\": %.4f, \"burn_4t_s\": %.4f, "
      "\"speedup_2t\": %.3f, \"speedup_4t\": %.3f}\n",
      t1, t2, t4, 2.0 * t1 / t2, 4.0 * t1 / t4);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  const std::string cmd = argc == 2 ? argv[1] : "";
  if (cmd == "pool") return cmd_pool();
  if (cmd == "golden") return cmd_golden();
  if (cmd == "layers") return cmd_layers();
  if (cmd == "burn") return cmd_burn();
  std::fprintf(stderr, "usage: perfbench_tool pool|golden|layers|burn\n");
  return 2;
}
