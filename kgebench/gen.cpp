// kgebench_gen — deterministic input generator for the dynkge benchmark.
//
//   kgebench_gen --seed N --out DIR
//
// Writes, from the seed alone:
//   DIR/graph/         an fb250k_mini-shaped knowledge graph in the OpenKE
//                      layout (entity2id.txt, relation2id.txt,
//                      {train,valid,test}2id.txt; `head tail relation`)
//   DIR/model.dkge     a seeded ComplEx (rank 32) model file in the DKGE v1
//                      format that encodes the graph's latent entity types
//   DIR/deltas.txt     a stream of new facts, `head relation tail` per line
//   DIR/queries.txt    five Zipf-skewed top-k read streams, one after another,
//                      `dir entity relation` per line (dir 0 = (h, r, ?),
//                      dir 1 = (?, r, t))
//
// Nothing here links against the program under test, so a change to the
// program cannot change the inputs it is measured on.
#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <stdexcept>
#include <string>
#include <unordered_set>
#include <vector>

namespace {

constexpr int kEntities = 12000;
constexpr int kRelations = 640;
constexpr std::size_t kFacts = 200000;
constexpr int kTypes = 32;
constexpr double kNoiseFraction = 0.05;
constexpr double kEntityExponent = 0.8;
constexpr double kRelationExponent = 1.05;
constexpr double kValidFraction = 0.02;
constexpr double kTestFraction = 0.02;
constexpr int kRank = 32;                // ComplEx components
// The read stream is the one `dynkge serve-bench` replays: Zipf(1.0) over
// 256 distinct (direction, entity, relation) identities, each drawn
// uniformly (its --distinct default, also the CI serve row). queries.txt
// holds kQueryPools such streams, each over its own identities.
constexpr std::size_t kDeltas = 150000;  // covers 60 s at the churn rate
constexpr std::size_t kQueryPools = 5;
constexpr std::size_t kQueryKeys = 256;
constexpr std::size_t kQueriesPerPool = 80000;
constexpr double kQueryExponent = 1.0;

class Rng {
 public:
  explicit Rng(std::uint64_t seed) : state_(seed) {}
  std::uint64_t next() {  // splitmix64
    std::uint64_t z = (state_ += 0x9E3779B97F4A7C15ULL);
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
    return z ^ (z >> 31);
  }
  double uniform() { return static_cast<double>(next() >> 11) * 0x1.0p-53; }
  std::size_t below(std::size_t n) { return static_cast<std::size_t>(next() % n); }
  double normal() {  // Box-Muller, one draw per call
    const double u1 = std::max(uniform(), 1e-300);
    const double u2 = uniform();
    return std::sqrt(-2.0 * std::log(u1)) * std::cos(2.0 * M_PI * u2);
  }

 private:
  std::uint64_t state_;
};

class Zipf {
 public:
  Zipf(std::size_t n, double exponent) : cdf_(n) {
    double sum = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
      sum += 1.0 / std::pow(static_cast<double>(i + 1), exponent);
      cdf_[i] = sum;
    }
    for (double& c : cdf_) c /= sum;
  }
  std::size_t sample(Rng& rng) const {
    const auto it = std::lower_bound(cdf_.begin(), cdf_.end(), rng.uniform());
    return std::min<std::size_t>(it - cdf_.begin(), cdf_.size() - 1);
  }

 private:
  std::vector<double> cdf_;
};

struct Triple {
  int h, r, t;
};

std::uint64_t pack(int h, int r, int t) {
  return (static_cast<std::uint64_t>(h) << 40) ^
         (static_cast<std::uint64_t>(r) << 20) ^ static_cast<std::uint64_t>(t);
}

void write_split(const std::filesystem::path& path,
                 const std::vector<Triple>& triples) {
  std::ofstream out(path);
  out << triples.size() << "\n";
  for (const Triple& x : triples) out << x.h << " " << x.t << " " << x.r << "\n";
  if (!out) throw std::runtime_error("cannot write " + path.string());
}

void write_vocab(const std::filesystem::path& path, const char* prefix, int n) {
  std::ofstream out(path);
  out << n << "\n";
  for (int i = 0; i < n; ++i) out << prefix << i << "\t" << i << "\n";
  if (!out) throw std::runtime_error("cannot write " + path.string());
}

template <typename T>
void put(std::string& buf, const T& v) {
  buf.append(reinterpret_cast<const char*>(&v), sizeof(T));
}

std::uint64_t fnv1a(const std::string& bytes) {
  std::uint64_t hash = 0xcbf29ce484222325ULL;
  for (const unsigned char c : bytes) {
    hash ^= c;
    hash *= 0x100000001b3ULL;
  }
  return hash;
}

}  // namespace

int main(int argc, char** argv) {
  std::uint64_t seed = 0;
  std::string out_dir;
  for (int i = 1; i + 1 < argc; i += 2) {
    if (std::strcmp(argv[i], "--seed") == 0) {
      seed = std::stoull(argv[i + 1]);
    } else if (std::strcmp(argv[i], "--out") == 0) {
      out_dir = argv[i + 1];
    }
  }
  if (out_dir.empty()) {
    std::fprintf(stderr, "usage: kgebench_gen --seed N --out DIR\n");
    return 2;
  }
  const std::filesystem::path out(out_dir);
  std::filesystem::create_directories(out / "graph");
  Rng rng(seed * 0x2545F4914F6CDD1DULL + 0xD1B54A32D192ED03ULL);
  // The relation structure (type pairs, fact-set sizes, which popularity
  // ranks take part) comes from a fixed stream, so every seed yields the
  // same graph shape; the seed relabels the entities and draws the noise
  // facts, the splits, the model noise, the deltas and the queries.
  Rng shape(0x5EED5EED5EED5EEDULL);

  // Entities get a latent type round-robin over a random popularity order;
  // within a type, list position is popularity rank.
  std::vector<int> perm(kEntities);
  for (int i = 0; i < kEntities; ++i) perm[i] = i;
  for (int i = kEntities - 1; i > 0; --i) std::swap(perm[i], perm[rng.below(i + 1)]);
  std::vector<std::vector<int>> of_type(kTypes);
  std::vector<int> type_of(kEntities), pop_rank(kEntities);
  for (int i = 0; i < kEntities; ++i) {
    const int e = perm[i];
    type_of[e] = i % kTypes;
    pop_rank[e] = static_cast<int>(of_type[i % kTypes].size());
    of_type[i % kTypes].push_back(e);
  }
  const Zipf in_type(of_type[0].size(), kEntityExponent);

  // Relation r links head type src[r] to tail type dst[r] with a Zipfian
  // fact budget; its facts are the complete bipartite set H_r x T_r.
  std::vector<int> src(kRelations), dst(kRelations);
  std::vector<double> weight(kRelations);
  double weight_sum = 0.0;
  for (int r = 0; r < kRelations; ++r) {
    weight[r] = 1.0 / std::pow(r + 1.0, kRelationExponent);
    weight_sum += weight[r];
  }
  const auto subset = [&](int type, std::size_t count) {
    const auto& group = of_type[type];
    count = std::min(count, group.size());
    std::unordered_set<int> chosen;
    std::vector<int> picked;
    for (std::size_t attempts = 0; picked.size() < count && attempts < count * 64;
         ++attempts) {
      const int e = group[in_type.sample(shape)];
      if (chosen.insert(e).second) picked.push_back(e);
    }
    for (std::size_t i = 0; picked.size() < count && i < group.size(); ++i) {
      if (chosen.insert(group[i]).second) picked.push_back(group[i]);
    }
    return picked;
  };
  std::vector<Triple> facts;
  std::unordered_set<std::uint64_t> seen;
  const double fact_budget = static_cast<double>(kFacts) * (1.0 - kNoiseFraction);
  for (int r = 0; r < kRelations; ++r) {
    src[r] = static_cast<int>(shape.below(kTypes));
    dst[r] = static_cast<int>(shape.below(kTypes));
    const double target = fact_budget * weight[r] / weight_sum;
    const double side = std::sqrt(std::max(1.0, target));
    const double skew = std::exp(-0.7 + 1.4 * shape.uniform());
    const auto heads_count =
        static_cast<std::size_t>(std::max(1.0, std::round(side * skew)));
    const auto tails_count = static_cast<std::size_t>(
        std::max(1.0, std::round(target / std::max(1.0, side * skew))));
    for (const int h : subset(src[r], heads_count)) {
      for (const int t : subset(dst[r], tails_count)) {
        if (seen.insert(pack(h, r, t)).second) facts.push_back({h, r, t});
      }
    }
  }
  const auto noise = static_cast<std::size_t>(kFacts * kNoiseFraction);
  for (std::size_t i = 0; i < noise; ++i) {
    const int r = static_cast<int>(rng.below(kRelations));
    const int h = static_cast<int>(rng.below(kEntities));
    const int t = static_cast<int>(rng.below(kEntities));
    if (seen.insert(pack(h, r, t)).second) facts.push_back({h, r, t});
  }
  for (std::size_t i = facts.size() - 1; i > 0; --i) {
    std::swap(facts[i], facts[rng.below(i + 1)]);
  }

  // Splits: a fact introducing an unseen entity or relation goes to train,
  // so valid/test never reference an untrained row.
  std::vector<Triple> train, valid, test;
  std::vector<bool> entity_seen(kEntities, false), relation_seen(kRelations, false);
  for (const Triple& x : facts) {
    const bool fresh = !entity_seen[x.h] || !entity_seen[x.t] || !relation_seen[x.r];
    entity_seen[x.h] = entity_seen[x.t] = true;
    relation_seen[x.r] = true;
    const double u = rng.uniform();
    if (fresh || u >= kValidFraction + kTestFraction) {
      train.push_back(x);
    } else {
      (u < kValidFraction ? valid : test).push_back(x);
    }
  }
  write_vocab(out / "graph" / "entity2id.txt", "e", kEntities);
  write_vocab(out / "graph" / "relation2id.txt", "r", kRelations);
  write_split(out / "graph" / "train2id.txt", train);
  write_split(out / "graph" / "valid2id.txt", valid);
  write_split(out / "graph" / "test2id.txt", test);

  // Seeded ComplEx model: each type owns a random phase vector; an entity
  // is its type's unit phasors scaled by popularity plus noise, and a
  // relation rotates its head type's phases onto its tail type's, so true
  // facts score high and popular entities rank first within a type.
  std::vector<double> phase(static_cast<std::size_t>(kTypes) * kRank);
  for (double& p : phase) p = 2.0 * M_PI * rng.uniform();
  const int width = 2 * kRank;
  std::vector<float> entity(static_cast<std::size_t>(kEntities) * width);
  for (int e = 0; e < kEntities; ++e) {
    const double magnitude = 0.25 * (0.6 + 0.8 / std::sqrt(1.0 + pop_rank[e] / 16.0));
    for (int k = 0; k < kRank; ++k) {
      const double p = phase[type_of[e] * kRank + k];
      entity[e * width + k] =
          static_cast<float>(magnitude * std::cos(p) + 0.08 * rng.normal());
      entity[e * width + kRank + k] =
          static_cast<float>(magnitude * std::sin(p) + 0.08 * rng.normal());
    }
  }
  std::vector<float> relation(static_cast<std::size_t>(kRelations) * width);
  for (int r = 0; r < kRelations; ++r) {
    for (int k = 0; k < kRank; ++k) {
      const double p = phase[dst[r] * kRank + k] - phase[src[r] * kRank + k];
      relation[r * width + k] = static_cast<float>(std::cos(p));
      relation[r * width + kRank + k] = static_cast<float>(std::sin(p));
    }
  }
  std::string model;
  model.append("DKGE", 4);
  put(model, std::uint32_t{1});
  put(model, std::uint32_t{7});
  model.append("complex");
  put(model, std::int32_t{kRank});
  put(model, 0.0f);
  for (const std::int32_t v : {kEntities, width, kRelations, width}) put(model, v);
  model.append(reinterpret_cast<const char*>(entity.data()), entity.size() * sizeof(float));
  model.append(reinterpret_cast<const char*>(relation.data()),
               relation.size() * sizeof(float));
  put(model, fnv1a(model));
  {
    std::ofstream f(out / "model.dkge", std::ios::binary);
    f.write(model.data(), static_cast<std::streamsize>(model.size()));
    if (!f) throw std::runtime_error("cannot write model.dkge");
  }

  // Delta stream: structurally plausible new facts (the relation's head
  // and tail types, popularity-skewed), in arrival order.
  const Zipf relation_zipf(kRelations, kRelationExponent);
  {
    std::ofstream f(out / "deltas.txt");
    for (std::size_t i = 0; i < kDeltas; ++i) {
      const int r = static_cast<int>(relation_zipf.sample(rng));
      const int h = of_type[src[r]][in_type.sample(rng)];
      const int t = of_type[dst[r]][in_type.sample(rng)];
      f << h << " " << r << " " << t << "\n";
    }
    if (!f) throw std::runtime_error("cannot write deltas.txt");
  }

  // Read streams: per pool, distinct queries, each a uniform direction,
  // entity and relation, drawn with Zipf skew over the pool.
  const Zipf query_zipf(kQueryKeys, kQueryExponent);
  {
    std::ofstream f(out / "queries.txt");
    for (std::size_t p = 0; p < kQueryPools; ++p) {
      std::vector<std::uint64_t> keys;
      std::unordered_set<std::uint64_t> key_seen;
      while (keys.size() < kQueryKeys) {
        const int dir = static_cast<int>(rng.below(2));
        const int entity = static_cast<int>(rng.below(kEntities));
        const int relation = static_cast<int>(rng.below(kRelations));
        const std::uint64_t key = pack(dir, relation, entity);
        if (key_seen.insert(key).second) keys.push_back(key);
      }
      for (std::size_t i = 0; i < kQueriesPerPool; ++i) {
        const std::uint64_t key = keys[query_zipf.sample(rng)];
        f << (key >> 40) << " " << (key & 0xFFFFF) << " " << ((key >> 20) & 0xFFFFF)
          << "\n";
      }
    }
    if (!f) throw std::runtime_error("cannot write queries.txt");
  }
  std::printf("kgebench_gen: seed %llu: %zu train / %zu valid / %zu test facts\n",
              static_cast<unsigned long long>(seed), train.size(), valid.size(),
              test.size());
  return 0;
}
