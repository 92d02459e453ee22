// Benchmark inputs: the seeded world, the compile corpus and the
// serve workload's never-seen-before shapes, plus the text front end.

#include <string>
#include <vector>

#include "aqua/parser.h"
#include "aqua/transform.h"
#include "bench.h"
#include "common/macros.h"
#include "common/random.h"
#include "eval/evaluator.h"
#include "optimizer/code_motion.h"
#include "optimizer/hidden_join.h"
#include "oql/oql.h"
#include "rewrite/types.h"
#include "term/parser.h"
#include "translate/translate.h"
#include "values/car_world.h"
#include "verify/query_gen.h"

namespace kola {
namespace bench {

namespace {

constexpr int kGeneratedQueries = 40;
constexpr int kMaxGeneratorDraws = 2000;
/// The generated batch is part of the fixed corpus: its shapes come from
/// this seed, while the run's --seed varies the world's data, the kolaload
/// constants and the serve request streams. A per-run batch would make the
/// plan-quality metrics measure which shapes were drawn rather than the
/// optimizer.
constexpr uint64_t kGeneratorSeed = 1;

/// The kolaload soak tool's OQL shape templates, with `constant` in the
/// position kolaload fills with an age.
std::string KolaloadShape(int index, const std::string& constant) {
  switch (index % 4) {
    case 0:
      return "select p.name from p in P where p.age > " + constant;
    case 1:
      return "select [v, p] from v in V, p in P where v in p.cars and "
             "p.age > " + constant;
    case 2:
      return "select c.name from p in P, c in p.child where c.age > " +
             constant;
    default:
      return "select a.city from p in P, a in p.grgs where p.age > " +
             constant;
  }
}

}  // namespace

std::unique_ptr<Database> BuildBenchWorld(uint64_t seed) {
  CarWorldOptions options;
  options.num_persons = kWorldScale;
  options.num_vehicles = kWorldScale;
  options.num_addresses = kWorldScale / 2 + 1;
  options.seed = seed;
  return BuildCarWorld(options);
}

std::vector<QueryText> BuildCorpus(uint64_t seed, const Database& db) {
  std::vector<QueryText> corpus;
  auto kola = [&](std::string name, const TermPtr& term) {
    corpus.push_back({std::move(name), QueryLanguage::kKola,
                      term->ToString()});
  };

  // The paper's queries, in the languages the paper writes them in.
  kola("k3", QueryK3());
  kola("k4", QueryK4());
  corpus.push_back({"garage-aqua", QueryLanguage::kAqua,
                    aqua::AquaGarageQuery()->ToString()});
  corpus.push_back(
      {"garage-oql", QueryLanguage::kOql,
       "select [v, flatten((select p.grgs from p in P where v in p.cars))] "
       "from v in V"});
  kola("kg1", GarageQueryKG1());
  for (int depth = 1; depth <= 8; ++depth) {
    StatusOr<TermPtr> hidden = MakeHiddenJoinQuery(depth);
    KOLA_CHECK_OK(hidden.status());
    kola("hj" + std::to_string(depth), hidden.value());
  }

  // The kolaload shapes, two of each template, seeded constants.
  Rng rng(seed);
  Rng shape_rng = rng.Child(1);
  for (int s = 0; s < 8; ++s) {
    std::string age = std::to_string(shape_rng.Uniform(10, 69));
    corpus.push_back({"kolaload" + std::to_string(s), QueryLanguage::kOql,
                      KolaloadShape(s, age)});
  }

  // The QueryGenerator batch. Draws the generator cannot fill, whose
  // rendering does not parse back, or whose input the naive evaluator
  // rejects are redrawn -- the soundness harness skips the same draws.
  Rng gen_rng = Rng(kGeneratorSeed).Child(2);
  SchemaTypes schema = SchemaTypes::CarWorld();
  QueryGenerator generator(&schema, &db, &gen_rng);
  int accepted = 0;
  for (int draw = 0; draw < kMaxGeneratorDraws && accepted < kGeneratedQueries;
       ++draw) {
    StatusOr<TermPtr> query = generator.RandomQuery();
    if (!query.ok()) continue;
    std::string text = query.value()->ToString();
    StatusOr<TermPtr> reparsed = ParseQuery(text);
    if (!reparsed.ok() || !Term::Equal(reparsed.value(), query.value())) {
      continue;
    }
    Evaluator probe(&db, EvalOptions{.max_steps = 5'000'000,
                                     .physical_fastpaths = false});
    if (!probe.EvalObject(query.value()).ok()) continue;
    corpus.push_back({"gen" + std::to_string(accepted), QueryLanguage::kKola,
                      std::move(text)});
    ++accepted;
  }
  return corpus;
}

std::vector<QueryText> NovelTemplates() {
  std::vector<QueryText> templates;
  for (int t = 0; t < 4; ++t) {
    const std::string oql = KolaloadShape(t, kNovelSentinel);
    StatusOr<aqua::ExprPtr> lowered = oql::ParseOql(oql);
    KOLA_CHECK_OK(lowered.status());
    Translator translator;
    StatusOr<TermPtr> term = translator.TranslateQuery(lowered.value());
    KOLA_CHECK_OK(term.status());
    templates.push_back({"novel-oql" + std::to_string(t), QueryLanguage::kOql,
                         oql});
    templates.push_back({"novel-aqua" + std::to_string(t),
                         QueryLanguage::kAqua, lowered.value()->ToString()});
    templates.push_back({"novel-kola" + std::to_string(t),
                         QueryLanguage::kKola, term.value()->ToString()});
  }
  for (const QueryText& t : templates) {
    KOLA_CHECK(t.text.find(kNovelSentinel) != std::string::npos);
  }
  return templates;
}

QueryText NovelShape(const std::vector<QueryText>& templates,
                     int64_t unique) {
  const QueryText& base =
      templates[static_cast<size_t>(unique) % templates.size()];
  QueryText out = base;
  // Constants past the age domain keep every novel shape distinct from
  // the warm pool and from each other.
  const std::string constant = std::to_string(1000 + unique);
  out.name = base.name + "#" + constant;
  const std::string sentinel = kNovelSentinel;
  size_t at = out.text.find(sentinel);
  out.text.replace(at, sentinel.size(), constant);
  return out;
}

StatusOr<TermPtr> FrontEnd(const QueryText& query, Tracer* tracer,
                           int64_t request) {
  aqua::ExprPtr expr;
  switch (query.language) {
    case QueryLanguage::kKola: {
      ScopedSpan span(tracer, "term.parse", request);
      return ParseQuery(query.text);
    }
    case QueryLanguage::kOql: {
      ScopedSpan span(tracer, "oql.parse", request);
      KOLA_ASSIGN_OR_RETURN(expr, oql::ParseOql(query.text));
      break;
    }
    case QueryLanguage::kAqua: {
      ScopedSpan span(tracer, "aqua.parse", request);
      KOLA_ASSIGN_OR_RETURN(expr, aqua::ParseAqua(query.text));
      break;
    }
  }
  ScopedSpan span(tracer, "translate", request);
  Translator translator;
  return translator.TranslateQuery(expr);
}

}  // namespace bench
}  // namespace kola
