#include "api/report.hpp"

namespace bnsgcn::api {

double RunReport::total_train_s() const {
  double total = 0.0;
  for (const auto& e : epochs) total += e.total_s();
  return total;
}

RunReport RunReport::from_train_result(core::TrainResult&& tr,
                                       std::string method,
                                       std::string dataset) {
  RunReport r;
  r.method = std::move(method);
  r.dataset = std::move(dataset);
  r.train_loss = std::move(tr.train_loss);
  r.curve = std::move(tr.curve);
  r.final_val = tr.final_val;
  r.final_test = tr.final_test;
  r.epochs = std::move(tr.epochs);
  r.memory = std::move(tr.memory);
  r.wall_time_s = tr.wall_time_s;
  return r;
}

} // namespace bnsgcn::api
