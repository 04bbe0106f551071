// B2B deployment scenario (Section VIII / Figure 10): generate
// recommendations for sales teams on a business-to-business
// client-product dataset, with the full co-cluster rationale a
// salesperson would review, plus a price estimate derived from the
// historical purchases of co-cluster peers.
//
// Run on synthetic B2B-like data by default; point --data at a
// tab-separated "client<TAB>product" file to use your own.

#include <cstdio>
#include <string>

#include "common/flags.h"
#include "core/coclusters.h"
#include "core/explain.h"
#include "core/ocular_recommender.h"
#include "data/loaders.h"
#include "data/synthetic.h"
#include "serving/batch.h"

namespace {

/// Mock deal-size table: in the real deployment this is the historical
/// transaction value of each product; here it is a deterministic synthetic
/// price per product id.
double ProductListPrice(uint32_t item) {
  return 5000.0 + 1000.0 * (item % 37) + 250.0 * (item % 11);
}

}  // namespace

int main(int argc, char** argv) {
  using namespace ocular;

  // --- Load or synthesize the client-product matrix. ---
  const Flags flags = ParseFlagsOrExit(
      {"b2b_deployment",
       "B2B recommendations with co-cluster rationales and price estimates.",
       {StringFlag("data", "",
                   "tab-separated client-product file; synthetic when "
                   "empty")}},
      argc, argv);
  const std::string& data_path = flags.String("data");
  Dataset dataset;
  if (!data_path.empty()) {
    CsvOptions opts;
    opts.delimiter = '\t';
    auto loaded = LoadCsv(data_path, opts);
    if (!loaded.ok()) {
      std::fprintf(stderr, "failed to load %s: %s\n", data_path.c_str(),
                   loaded.status().ToString().c_str());
      return 1;
    }
    dataset = std::move(loaded).value();
  } else {
    Rng rng(2024);
    auto synth = MakeB2BLike(/*scale=*/0.02, &rng);
    if (!synth.ok()) {
      std::fprintf(stderr, "%s\n", synth.status().ToString().c_str());
      return 1;
    }
    dataset = std::move(synth).value().dataset;
    // Business-flavoured labels for the rationale text.
    std::vector<std::string> clients, products;
    for (uint32_t u = 0; u < dataset.num_users(); ++u) {
      clients.push_back("Client-" + std::to_string(1000 + u));
    }
    static const char* kFamilies[] = {"Storage", "Cloud", "Analytics",
                                      "Security", "Consulting", "Network"};
    for (uint32_t i = 0; i < dataset.num_items(); ++i) {
      products.push_back(std::string(kFamilies[i % 6]) + "-Suite-" +
                         std::to_string(i));
    }
    dataset.set_user_labels(std::move(clients));
    dataset.set_item_labels(std::move(products));
  }
  std::printf("%s\n\n", dataset.Summary().c_str());

  // --- Train OCuLaR. ---
  OcularConfig config;
  config.k = 16;
  config.lambda = 0.5;
  config.max_sweeps = 40;
  OcularRecommender rec(config);
  Status st = rec.Fit(dataset.interactions());
  if (!st.ok()) {
    std::fprintf(stderr, "training failed: %s\n", st.ToString().c_str());
    return 1;
  }

  // --- Produce seller-facing opportunity sheets for a few clients. ---
  // The real deployment regenerates everyone's list per model refresh
  // (Section VIII) — run the bulk blocked-scoring engine once, with the
  // confidence bar pushed into selection, then review the top hits.
  const CsrMatrix& r = dataset.interactions();
  BatchOptions bopts;
  bopts.m = 1;
  bopts.min_score = 0.4;
  auto batch = RecommendForAllUsers(rec, r, bopts);
  if (!batch.ok()) {
    std::fprintf(stderr, "%s\n", batch.status().ToString().c_str());
    return 1;
  }
  int sheets = 0;
  for (uint32_t u = 0; u < dataset.num_users() && sheets < 3; ++u) {
    const auto& top = batch->recommendations[u];
    if (top.empty()) continue;
    ++sheets;
    const uint32_t item = top[0].item;

    std::printf("================ SALES OPPORTUNITY %d ================\n",
                sheets);
    auto expl = ExplainRecommendation(rec.model(), r, u, item);
    if (!expl.ok()) continue;
    std::printf("%s", RenderExplanationText(*expl, dataset).c_str());

    // Price estimate from co-cluster peers' historical purchases of the
    // product (Figure 10's "price estimate of the potential deal").
    double price_sum = 0.0;
    int buyers = 0;
    for (const auto& clause : expl->clauses) {
      for (uint32_t peer : clause.supporting_users) {
        (void)peer;
        price_sum += ProductListPrice(item);
        ++buyers;
      }
    }
    if (buyers > 0) {
      std::printf("  estimated deal size (from %d similar purchases): "
                  "$%.0f\n\n", buyers, price_sum / buyers);
    }
  }
  if (sheets == 0) {
    std::printf("no high-confidence opportunities at this scale; "
                "raise --scale or lower the confidence bar.\n");
  }
  return 0;
}
