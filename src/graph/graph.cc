#include "graph/graph.h"

#include <algorithm>

#include "sparse/coo.h"

namespace ocular {

Graph Graph::FromBipartite(const CsrMatrix& interactions) {
  const uint32_t nu = interactions.num_rows();
  const uint32_t total = nu + interactions.num_cols();
  CooBuilder coo;
  coo.Reserve(interactions.nnz() * 2);
  for (uint32_t u = 0; u < nu; ++u) {
    for (uint32_t i : interactions.Row(u)) {
      coo.Add(u, nu + i);
      coo.Add(nu + i, u);
    }
  }
  Graph g;
  g.adjacency_ = CsrMatrix::FromCoo(coo.Finalize(total, total).value());
  g.bipartite_offset_ = nu;
  return g;
}

Result<Graph> Graph::FromEdges(
    uint32_t num_nodes,
    const std::vector<std::pair<uint32_t, uint32_t>>& edges) {
  CooBuilder coo;
  coo.Reserve(edges.size() * 2);
  for (const auto& [a, b] : edges) {
    if (a >= num_nodes || b >= num_nodes) {
      return Status::InvalidArgument("edge endpoint out of range");
    }
    if (a == b) continue;  // drop self-loops
    coo.Add(a, b);
    coo.Add(b, a);
  }
  Graph g;
  OCULAR_ASSIGN_OR_RETURN(auto entries, coo.Finalize(num_nodes, num_nodes));
  g.adjacency_ = CsrMatrix::FromCoo(std::move(entries));
  return g;
}

double Modularity(const Graph& graph, const std::vector<uint32_t>& community) {
  const double m = static_cast<double>(graph.num_edges());
  if (m == 0.0) return 0.0;
  uint32_t num_comms = 0;
  for (uint32_t c : community) num_comms = std::max(num_comms, c + 1);
  std::vector<double> intra(num_comms, 0.0);   // e_c (each edge once)
  std::vector<double> degree(num_comms, 0.0);  // d_c
  for (uint32_t v = 0; v < graph.num_nodes(); ++v) {
    degree[community[v]] += graph.Degree(v);
    for (uint32_t w : graph.Neighbors(v)) {
      if (v < w && community[v] == community[w]) intra[community[v]] += 1.0;
    }
  }
  double q = 0.0;
  for (uint32_t c = 0; c < num_comms; ++c) {
    const double frac = degree[c] / (2.0 * m);
    q += intra[c] / m - frac * frac;
  }
  return q;
}

}  // namespace ocular
