// Seeded store and session-trace generator for the browsing benchmark.
//
// The store is a loosely structured database shaped like the paper's
// examples at scale: entities are IN the leaf classes of a DAG ISA
// taxonomy, facts among entities have Zipf-skewed degree, a quarter of
// the relationships have an ISA parent (so probing can generalize the
// relationship position), and the Sec 5.2 campus domain rides along so
// the paper's retraction menu is always present. The standard rules
// derive several facts per asserted fact from this shape.
//
// Session traces are lists of command lines in the server grammar: the
// Sec 4.1 navigation loop (visit, visit a neighbour, back, forward),
// point and two-atom join queries, failing probes whose retractions
// run through the taxonomy, semantic distance, and the Sec 5.2 probe.
// The same seed always gives the same store and the same traces; the
// server only ever sees the generated lines.
#ifndef PERFBENCH_GENERATOR_H_
#define PERFBENCH_GENERATOR_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "core/loose_db.h"

namespace perfbench {

struct Triple {
  std::string source, relationship, target;
};

std::string FactText(const Triple& t);  // "(S, R, T)"

// The generated store plus the indexes the trace generators draw on.
struct Store {
  std::vector<Triple> facts;   // everything asserted, campus included
  size_t entity_facts = 0;     // the entity-to-entity part of `facts`
  std::vector<std::string> leaves;           // leaf class names
  std::vector<std::vector<size_t>> siblings;  // leaf -> leaves sharing a parent
  std::vector<size_t> entity_leaf;           // entity index -> leaf index
  // Outgoing asserted entity facts per entity: (relationship, target).
  std::vector<std::vector<std::pair<uint32_t, uint32_t>>> out;
  size_t entities() const { return entity_leaf.size(); }
};

// Relationships R0..R15; R0 and R2 are ISA G0, R1 and R3 ISA G1.
inline constexpr size_t kRelationships = 16;

std::string EntityName(size_t i);
std::string RelationshipName(size_t j);

// A store with `facts` asserted entity-to-entity facts (8 per entity)
// plus the taxonomy, the IN facts and the campus domain.
Store GenerateStore(size_t facts, uint64_t seed);

// Asserts every fact of `store` into `db`.
void LoadInto(const Store& store, lsd::LooseDb* db);

// The Sec 5.2 probe and the menu lines its answer must contain.
extern const char kMenuProbe[];
extern const char* const kMenuLines[];
extern const size_t kMenuLineCount;

// One generated command line and its request class.
struct Step {
  std::string line;
  // The request classes the benchmark reports latencies by (kCommit is
  // the writers' class; traces hold only the other three).
  enum class Kind : uint8_t { kRead, kHypo, kHypoRead, kCommit } kind =
      Kind::kRead;
  // For hypothetical retractions, the retracted fact (the read that
  // follows queries exactly it and must find nothing).
  std::string probe_fact;
  // A failing one-template probe whose retraction generalizes the
  // relationship: the probe kind the browse workload reports on its own.
  bool relationship_probe = false;
};

// A browsing session trace of `steps` steps. With `hypo_every` > 0,
// every hypo_every steps the session hypothetically retracts a fact it
// just read, reads it back once, and clears the hypothesis.
std::vector<Step> BrowseTrace(const Store& store, uint64_t seed,
                              size_t session, size_t steps,
                              size_t hypo_every);

}  // namespace perfbench

#endif  // PERFBENCH_GENERATOR_H_
