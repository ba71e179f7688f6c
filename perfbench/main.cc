// gir_perfbench — the compiled half of the served benchmark (run.py is
// the other half and the entry point).
//
//   gir_perfbench gen    --seed N --out DIR [--envelope]
//   gir_perfbench load   --workload W --seed N --port P --data DIR
//                           --seconds S --out FILE [--warmup S] [--tail-ops N]
//                           [--spans FILE]
//   gir_perfbench layers --workload W --seed N --data DIR --out FILE
//                           --spans FILE [--from I0,I1,I2,I3]
//
// gen writes the seeded inputs as files (points.bin, weights.bin and, with
// --envelope, the 2-lane GIRSHD01 envelope shards.gir the cluster's shard
// workers and router boot from). load drives a running server and checks
// its answers (load.cc). layers replays the same seeded stream through
// each layer's public functions in-process (layers.cc).

#include <cstdio>
#include <cstdlib>
#include <map>
#include <optional>
#include <string>

#include "grid/index_io.h"
#include "grid/sharded_index.h"
#include "io/dataset_io.h"
#include "layers.h"
#include "load.h"
#include "workload.h"

namespace perfbench {
namespace {

class Flags {
 public:
  Flags(int argc, char** argv, int first) {
    for (int i = first; i < argc; ++i) {
      std::string key = argv[i];
      if (key.rfind("--", 0) != 0) {
        error_ = "unexpected argument: " + key;
        return;
      }
      key = key.substr(2);
      if (i + 1 < argc && std::string(argv[i + 1]).rfind("--", 0) != 0) {
        values_[key] = argv[++i];
      } else {
        values_[key] = "";
      }
    }
  }
  const std::string& error() const { return error_; }
  std::optional<std::string> Get(const std::string& key) const {
    const auto it = values_.find(key);
    if (it == values_.end()) return std::nullopt;
    return it->second;
  }
  std::string Str(const std::string& key) const {
    return Get(key).value_or("");
  }
  double Num(const std::string& key, double fallback) const {
    const auto v = Get(key);
    return v.has_value() ? std::strtod(v->c_str(), nullptr) : fallback;
  }
  bool Has(const std::string& key) const { return Get(key).has_value(); }

 private:
  std::map<std::string, std::string> values_;
  std::string error_;
};

int Usage(const std::string& why) {
  std::fprintf(stderr, "error: %s\n", why.c_str());
  return 1;
}

int Gen(const Flags& f) {
  if (!f.Has("seed") || !f.Has("out")) return Usage("gen needs --seed --out");
  const uint64_t seed = std::strtoull(f.Str("seed").c_str(), nullptr, 10);
  const std::string dir = f.Str("out");
  const gir::Dataset points = MakePoints(seed);
  const gir::Dataset weights = MakeWeights(seed);
  gir::Status s = gir::SaveDataset(dir + "/points.bin", points);
  if (s.ok()) s = gir::SaveDataset(dir + "/weights.bin", weights);
  if (s.ok() && f.Has("envelope")) {
    gir::ShardedIndexOptions opts;
    opts.shards = kShards;
    opts.dynamic.gir.scan_mode = gir::ScanMode::kTauIndex;
    auto index = gir::ShardedGirIndex::Build(points, weights, opts);
    s = index.ok() ? gir::SaveShardedIndex(dir + "/shards.gir", *index.value())
                   : index.status();
  }
  if (!s.ok()) {
    std::fprintf(stderr, "error: %s\n", s.ToString().c_str());
    return 2;
  }
  return 0;
}

int Load(const Flags& f) {
  LoadOptions o;
  if (!FindWorkload(f.Str("workload"), &o.spec)) {
    return Usage("unknown --workload " + f.Str("workload"));
  }
  if (!f.Has("seed") || !f.Has("port") || !f.Has("data") || !f.Has("out")) {
    return Usage("load needs --seed --port --data --out");
  }
  o.seed = std::strtoull(f.Str("seed").c_str(), nullptr, 10);
  o.port = static_cast<uint16_t>(
      std::strtoul(f.Str("port").c_str(), nullptr, 10));
  o.data_dir = f.Str("data");
  o.out_path = f.Str("out");
  o.seconds = f.Num("seconds", o.seconds);
  o.warmup_s = f.Num("warmup", o.warmup_s);
  o.tail_ops = static_cast<uint32_t>(f.Num("tail-ops", 0));
  o.trace = f.Has("spans");
  o.spans_path = f.Str("spans");
  return RunLoad(o);
}

int Layers(const Flags& f) {
  LayerOptions o;
  if (!FindWorkload(f.Str("workload"), &o.spec)) {
    return Usage("unknown --workload " + f.Str("workload"));
  }
  if (!f.Has("seed") || !f.Has("data") || !f.Has("out") || !f.Has("spans")) {
    return Usage("layers needs --seed --data --out --spans");
  }
  o.seed = std::strtoull(f.Str("seed").c_str(), nullptr, 10);
  o.data_dir = f.Str("data");
  o.out_path = f.Str("out");
  o.spans_path = f.Str("spans");
  // Comma-separated first measured op index of each client.
  const std::string from = f.Str("from");
  for (const char* p = from.c_str(); *p != '\0';) {
    char* end = nullptr;
    o.from.push_back(std::strtoull(p, &end, 10));
    if (end == p) return Usage("bad --from " + from);
    p = *end == ',' ? end + 1 : end;
  }
  return RunLayers(o);
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  if (argc < 2) return Usage("usage: gir_perfbench gen|load|layers ...");
  const Flags flags(argc, argv, 2);
  if (!flags.error().empty()) return Usage(flags.error());
  const std::string cmd = argv[1];
  if (cmd == "gen") return Gen(flags);
  if (cmd == "load") return Load(flags);
  if (cmd == "layers") return Layers(flags);
  return Usage("unknown subcommand " + cmd);
}
