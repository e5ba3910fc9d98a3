// Regenerates paper Table I: the dataset inventory. Prints the paper's
// original sizes next to the scaled synthetic stand-ins actually used by
// the other benches (see docs/ARCHITECTURE.md, "Substitutions").
#include <cstdio>

#include "bench_common.hpp"

int main() {
  using namespace ht;

  std::printf("=== Table I: tensors used in the experiments ===\n");
  std::printf("(paper sizes -> scaled synthetic stand-ins at HT_SCALE=%.2f)\n\n",
              htb::bench_scale());

  struct PaperRow {
    const char* name;
    const char* dims;
    const char* nnz;
  };
  const PaperRow paper[] = {
      {"netflix", "480K x 17K x 2K", "100M"},
      {"nell", "3.2M x 301 x 638K", "78M"},
      {"delicious", "1.4K x 532K x 17M x 2.4M", "140M"},
      {"flickr", "731 x 319K x 28M x 1.6M", "112M"},
  };

  TextTable table({"tensor", "paper dims", "paper nnz", "generated dims",
                   "generated nnz", "ranks"});
  for (const auto& row : paper) {
    const auto bt = htb::load_preset(row.name);
    std::string dims, ranks;
    for (std::size_t n = 0; n < bt.spec.shape.size(); ++n) {
      if (n) dims += " x ";
      dims += std::to_string(bt.spec.shape[n]);
    }
    for (std::size_t n = 0; n < bt.spec.ranks.size(); ++n) {
      if (n) ranks += ",";
      ranks += std::to_string(bt.spec.ranks[n]);
    }
    table.add_row({row.name, row.dims, row.nnz, dims,
                   human_count(static_cast<double>(bt.tensor.nnz())), ranks});
  }
  std::printf("%s\n", table.to_string().c_str());
  return 0;
}
