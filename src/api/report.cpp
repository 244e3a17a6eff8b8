#include "api/report.hpp"

namespace bnsgcn::api {

double RunReport::total_train_s() const {
  double total = 0.0;
  for (const auto& e : epochs) total += e.total_s();
  return total;
}

} // namespace bnsgcn::api
