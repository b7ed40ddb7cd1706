#include "generator.h"

#include <algorithm>
#include <unordered_set>

#include "util/random.h"
#include "workload/university_domain.h"

namespace perfbench {

namespace {

constexpr size_t kFactsPerEntity = 8;
constexpr double kZipfExponent = 0.7;  // degree skew, sources and targets
constexpr int kTaxonomyRoots = 3;
constexpr int kTaxonomyFanout = 5;  // two levels below the roots
constexpr double kExtraParentProb = 0.3;
constexpr size_t kGeneralizedRelationships = 4;

// Distinct streams from one user seed.
uint64_t Mix(uint64_t seed, uint64_t stream) {
  uint64_t z = seed + 0x9E3779B97F4A7C15ull * (stream + 1);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

// Collects the campus domain's facts as triples so the whole store is
// one list (the generator never hands the server anything but lines
// and facts).
std::vector<Triple> CampusFacts() {
  lsd::LooseDbOptions options;
  options.standard_rules = false;
  lsd::LooseDb db(options);
  lsd::workload::BuildCampusDomain(&db);
  std::vector<Triple> out;
  const lsd::EntityTable& names = db.entities();
  db.store().base_source().ForEach(lsd::Pattern{}, [&](const lsd::Fact& f) {
    out.push_back(Triple{names.Name(f.source), names.Name(f.relationship),
                         names.Name(f.target)});
    return true;
  });
  return out;
}

}  // namespace

std::string FactText(const Triple& t) {
  return "(" + t.source + ", " + t.relationship + ", " + t.target + ")";
}

std::string EntityName(size_t i) { return "X" + std::to_string(i); }
std::string RelationshipName(size_t j) { return "R" + std::to_string(j); }

const char kMenuProbe[] = "probe (STUDENT, LOVE, ?Z) and (?Z, COSTS, FREE)";
const char* const kMenuLines[] = {
    "Query failed. Retrying...",
    "1. Success with FRESHMAN instead of STUDENT",
    "2. Success with CHEAP instead of FREE",
};
const size_t kMenuLineCount = sizeof(kMenuLines) / sizeof(kMenuLines[0]);

Store GenerateStore(size_t facts, uint64_t seed) {
  Store store;
  // The taxonomy is the same for every seed: its shape sets how many
  // facts each asserted fact derives, and the seed should vary the data
  // browsed, not the cost per fact.
  lsd::Rng tax_rng(0x7A40);
  lsd::Rng rng(Mix(seed, 0));

  // Taxonomy: roots C<r>, middle C<r>.<i>, leaves C<r>.<i>.<j>; some
  // nodes get a second parent from the level above (a DAG, so probing
  // sees several minimal generalizations).
  std::vector<std::string> roots, middle;
  for (int r = 0; r < kTaxonomyRoots; ++r) {
    roots.push_back("C" + std::to_string(r));
  }
  std::vector<size_t> leaf_parent;
  for (size_t r = 0; r < roots.size(); ++r) {
    for (int i = 0; i < kTaxonomyFanout; ++i) {
      middle.push_back(roots[r] + "." + std::to_string(i));
      store.facts.push_back(Triple{middle.back(), "ISA", roots[r]});
      if (tax_rng.Bernoulli(kExtraParentProb)) {
        const std::string& extra = roots[tax_rng.Uniform(roots.size())];
        if (extra != roots[r]) {
          store.facts.push_back(Triple{middle.back(), "ISA", extra});
        }
      }
    }
  }
  for (size_t m = 0; m < middle.size(); ++m) {
    for (int j = 0; j < kTaxonomyFanout; ++j) {
      store.leaves.push_back(middle[m] + "." + std::to_string(j));
      leaf_parent.push_back(m);
      store.facts.push_back(Triple{store.leaves.back(), "ISA", middle[m]});
      if (tax_rng.Bernoulli(kExtraParentProb)) {
        const std::string& extra = middle[tax_rng.Uniform(middle.size())];
        if (extra != middle[m]) {
          store.facts.push_back(Triple{store.leaves.back(), "ISA", extra});
        }
      }
    }
  }
  store.siblings.resize(store.leaves.size());
  for (size_t a = 0; a < store.leaves.size(); ++a) {
    for (size_t b = 0; b < store.leaves.size(); ++b) {
      if (a != b && leaf_parent[a] == leaf_parent[b]) {
        store.siblings[a].push_back(b);
      }
    }
  }

  // Relationship generalizations: R0..R3 ISA G0/G1.
  for (size_t j = 0; j < kGeneralizedRelationships; ++j) {
    store.facts.push_back(
        Triple{RelationshipName(j), "ISA", "G" + std::to_string(j % 2)});
  }

  // Entities, each IN one leaf class.
  const size_t n = std::max<size_t>(facts / kFactsPerEntity, 16);
  store.entity_leaf.resize(n);
  store.out.resize(n);
  for (size_t e = 0; e < n; ++e) {
    store.entity_leaf[e] = rng.Uniform(store.leaves.size());
    store.facts.push_back(
        Triple{EntityName(e), "IN", store.leaves[store.entity_leaf[e]]});
  }

  // Zipf-skewed entity facts; the target ranking is an independent
  // permutation so popular sources are not automatically popular
  // targets. Duplicates are redrawn.
  lsd::ZipfSampler zipf(n, kZipfExponent);
  std::vector<uint32_t> target_rank(n);
  for (size_t i = 0; i < n; ++i) target_rank[i] = static_cast<uint32_t>(i);
  for (size_t i = n; i > 1; --i) {
    std::swap(target_rank[i - 1], target_rank[rng.Uniform(i)]);
  }
  std::unordered_set<uint64_t> seen;
  seen.reserve(facts * 2);
  while (store.entity_facts < facts) {
    const uint32_t s = static_cast<uint32_t>(zipf.Sample(rng));
    const uint32_t t = target_rank[zipf.Sample(rng)];
    const uint32_t r = static_cast<uint32_t>(rng.Uniform(kRelationships));
    if (s == t) continue;
    const uint64_t key = (uint64_t{s} << 36) ^ (uint64_t{t} << 8) ^ r;
    if (!seen.insert(key).second) continue;
    store.out[s].emplace_back(r, t);
    store.facts.push_back(
        Triple{EntityName(s), RelationshipName(r), EntityName(t)});
    ++store.entity_facts;
  }

  for (Triple& t : CampusFacts()) store.facts.push_back(std::move(t));
  return store;
}

void LoadInto(const Store& store, lsd::LooseDb* db) {
  for (const Triple& t : store.facts) {
    db->Assert(t.source, t.relationship, t.target);
  }
}

std::vector<Step> BrowseTrace(const Store& store, uint64_t seed,
                              size_t session, size_t steps,
                              size_t hypo_every) {
  lsd::Rng rng(Mix(seed, 1000 + session));
  lsd::ZipfSampler zipf(store.entities(), kZipfExponent);
  std::vector<Step> trace;
  trace.reserve(steps + steps / 4);

  auto read = [&](std::string line) {
    trace.push_back(Step{std::move(line), Step::Kind::kRead, {}, false});
  };
  // An entity with at least one outgoing fact, Zipf-weighted.
  auto pick_source = [&]() -> size_t {
    for (;;) {
      size_t e = zipf.Sample(rng);
      if (!store.out[e].empty()) return e;
    }
  };
  // The asserted fact most recently read, for the hypothetical cycle.
  Triple last_read;
  bool have_last = false;

  size_t last_hypo = 0;
  while (trace.size() < steps) {
    const size_t a = pick_source();
    const auto& edges = store.out[a];
    const auto& edge = edges[rng.Uniform(edges.size())];
    const std::string sa = EntityName(a);
    const std::string rel = RelationshipName(edge.first);
    const std::string sb = EntityName(edge.second);
    switch (rng.Uniform(8)) {
      case 0:
      case 1:  // Sec 4.1: visit, step to a neighbour, back, forward.
        read("visit " + sa);
        read("visit " + sb);
        read("back");
        read("forward");
        break;
      case 2:  // point query on an asserted fact
        read("query (" + sa + ", " + rel + ", ?X)");
        last_read = Triple{sa, rel, sb};
        have_last = true;
        break;
      case 3: {  // two-atom join through the neighbour
        read("query (" + sa + ", " + rel + ", ?X) and (?X, IN, ?C)");
        break;
      }
      case 4: {  // failing probe: a sibling relationship never links a to b
        // Take an edge of `a` over a generalized relationship. R0/R2
        // share G0 and R1/R3 share G1, so the retraction that generalizes
        // the sibling to its parent succeeds.
        const std::pair<uint32_t, uint32_t>* g = nullptr;
        for (const auto& e : edges) {
          if (e.first < kGeneralizedRelationships) g = &e;
        }
        bool linked = false;
        if (g != nullptr) {
          for (const auto& e : edges) {
            if (e.first == (g->first ^ 2u) && e.second == g->second) {
              linked = true;
            }
          }
        }
        if (g != nullptr && !linked) {
          read("probe (" + sa + ", " + RelationshipName(g->first ^ 2u) +
               ", " + EntityName(g->second) + ")");
          trace.back().relationship_probe = true;
        } else {
          read("nav " + sb);
        }
        break;
      }
      case 5: {  // failing probe through the class taxonomy
        const size_t leaf = store.entity_leaf[edge.second];
        const auto& sib = store.siblings[leaf];
        size_t pick = sib.empty() ? leaf : sib[rng.Uniform(sib.size())];
        bool hit = false;
        for (const auto& e : edges) {
          if (e.first == edge.first && store.entity_leaf[e.second] == pick) {
            hit = true;
          }
        }
        if (!hit && pick != leaf) {
          read("probe (" + sa + ", " + rel + ", ?Z) and (?Z, IN, " +
               store.leaves[pick] + ")");
        } else {
          read("query (" + sa + ", " + rel + ", " + store.leaves[leaf] + ")");
        }
        break;
      }
      case 6:
        read("dist " + sa + " " + sb);
        break;
      default:
        if (rng.Uniform(4) == 0) {
          read(kMenuProbe);
        } else {
          read("nav " + sa);
        }
        break;
    }
    if (hypo_every > 0 && have_last &&
        trace.size() - last_hypo >= hypo_every) {
      const std::string fact = FactText(last_read);
      trace.push_back(
          Step{"hypo retract " + fact, Step::Kind::kHypo, fact, false});
      trace.push_back(Step{"query " + fact, Step::Kind::kHypoRead, fact, false});
      trace.push_back(Step{"hypo clear", Step::Kind::kHypo, {}, false});
      last_hypo = trace.size();
      have_last = false;
    }
  }
  return trace;
}

}  // namespace perfbench
