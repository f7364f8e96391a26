// Dirty ER on a legacy customer database — the scenario that motivates the
// paper (Section 1.2): ~millions of electricity-supply records carrying a
// customer name, an address and usually-empty optional fields, riddled with
// duplicate registrations.
//
// This example hand-rolls a miniature such database (no generator library
// involved) to show how the public API deals with raw, messy profiles:
// schema-agnostic Token Blocking needs no schema alignment, and Generalized
// Supervised Meta-blocking needs only 50 labelled pairs.
//
// Build & run:  ./build/examples/customer_dedup

#include <cstdio>
#include <string>
#include <vector>

#include "core/pipeline.h"
#include "er/entity_collection.h"
#include "util/random.h"

namespace {

using namespace gsmb;

const char* kFirstNames[] = {"mario", "giulia", "luca",  "anna",
                             "paolo", "sofia",  "marco", "elena"};
const char* kLastNames[] = {"rossi", "russo",  "ferrari", "esposito",
                            "bianchi", "romano", "colombo", "ricci"};
const char* kStreets[] = {"via roma",      "corso italia",  "via garibaldi",
                          "viale europa",  "via mazzini",   "via verdi",
                          "corso venezia", "via dante"};
const char* kCities[] = {"modena", "bologna", "parma", "ferrara"};

// One registration of a customer; `sloppy` simulates the second data-entry:
// abbreviations, swapped fields, missing tax id.
EntityProfile MakeRecord(const std::string& id, size_t person, size_t street,
                         size_t number, size_t city, bool has_tax_id,
                         bool sloppy, Rng* rng) {
  EntityProfile p(id);
  std::string name = std::string(kFirstNames[person % 8]) + " " +
                     kLastNames[(person / 8) % 8];
  std::string address = std::string(kStreets[street]) + " " +
                        std::to_string(number) + " " + kCities[city];
  if (sloppy) {
    // Sloppy copies abbreviate the street type and may drop the city.
    std::string abbreviated = address;
    if (abbreviated.rfind("via ", 0) == 0) abbreviated = abbreviated.substr(4);
    if (rng->NextBool(0.4)) abbreviated = abbreviated.substr(
        0, abbreviated.rfind(' '));
    p.AddAttribute("customer", name);
    p.AddAttribute("supply_address", abbreviated);
  } else {
    p.AddAttribute("name", name);
    p.AddAttribute("address", address);
  }
  if (has_tax_id && !sloppy) {
    p.AddAttribute("tax_id", "tx" + std::to_string(person * 7919 + number));
  }
  return p;
}

// Builds "c<n>" via operator+= (the append path). String operator+ on
// rvalues can inline through basic_string::insert, which trips a GCC 12
// -Wrestrict false positive at -O3 (GCC PR105651).
std::string RecordId(size_t n) {
  std::string id = "c";
  id += std::to_string(n);
  return id;
}

}  // namespace

int main() {
  using namespace gsmb;
  Rng rng(2024);

  // ---- Build the dirty collection: ~1200 registrations, ~25% duplicated.
  EntityCollection customers("customers");
  GroundTruth gt(/*dirty=*/true);
  size_t id_counter = 0;
  for (size_t person = 0; person < 900; ++person) {
    size_t street = rng.NextUint64(8);
    size_t number = 1 + rng.NextUint64(120);
    size_t city = rng.NextUint64(4);
    bool has_tax_id = rng.NextBool(0.3);

    EntityId first = customers.Add(
        MakeRecord(RecordId(id_counter++), person, street, number, city,
                   has_tax_id, /*sloppy=*/false, &rng));
    if (rng.NextBool(0.25)) {
      // A second, sloppier registration of the same supply.
      EntityId dup = customers.Add(
          MakeRecord(RecordId(id_counter++), person, street, number, city,
                     has_tax_id, /*sloppy=*/true, &rng));
      gt.AddMatch(first, dup);
    }
  }
  std::printf("Customer DB: %zu registrations, %zu known duplicate pairs\n",
              customers.size(), gt.size());

  // ---- Blocking + meta-blocking. ----
  PreparedDataset prep = PrepareDirty("customers", customers, std::move(gt));
  std::printf("Token Blocking: %zu blocks -> %zu candidate pairs "
              "(recall %.3f, precision %.4f)\n",
              prep.blocks.size(), prep.pairs.size(),
              prep.blocking_quality.recall, prep.blocking_quality.precision);

  for (PruningKind kind : {PruningKind::kBlast, PruningKind::kRcnp}) {
    MetaBlockingConfig config;
    config.pruning = kind;
    config.features = kind == PruningKind::kBlast
                          ? FeatureSet::BlastOptimal()
                          : FeatureSet::RcnpOptimal();
    config.train_per_class = 25;
    MetaBlockingResult result = RunMetaBlocking(prep, config);
    std::printf(
        "%-5s kept %5zu pairs: recall %.3f, precision %.3f, F1 %.3f "
        "(%.1f ms)\n",
        PruningKindName(kind), result.metrics.retained,
        result.metrics.recall, result.metrics.precision, result.metrics.f1,
        result.phases.Total() * 1e3);
  }

  std::printf(
      "\nReading: BLAST favours recall (catch every duplicate supply), "
      "RCNP favours\nprecision (fewer pairs for the clerks to review). Both "
      "needed only 50 labels.\n");
  return 0;
}
