#include "core/tuner.hpp"

#include <stdexcept>

namespace spmv::core {

template <typename T>
AutoSpmv<T> Tuner<T>::build() const {
  // backend(kind) > plan().backend > clsim.
  const exec::BackendKind kind =
      backend_kind_.has_value() ? *backend_kind_
      : plan_.has_value()      ? plan_->backend
                               : exec::BackendKind::Clsim;

  if (plan_.has_value()) {
    if (scheme_.has_value() || unit_.has_value())
      throw std::invalid_argument(
          "Tuner: plan() already fixes the binning; scheme()/unit() would "
          "be ignored");
    return AutoSpmv<T>(*a_, *plan_, kind, profile_, format_policy_);
  }
  if (predictor_ == nullptr)
    throw std::logic_error("Tuner: predictor() or plan() required");

  // Resolve scheme/unit overrides into a forced granularity choice; no
  // override leaves the prediction to the predictor.
  std::optional<Predictor::UnitChoice> forced;
  switch (scheme_.value_or(binning::SchemeKind::Coarse)) {
    case binning::SchemeKind::Coarse:
      if (unit_.has_value()) forced = Predictor::UnitChoice{*unit_, false};
      break;
    case binning::SchemeKind::Fine:
      if (unit_.has_value() && *unit_ != 1)
        throw std::invalid_argument("Tuner: fine scheme implies unit 1");
      forced = Predictor::UnitChoice{1, false};
      break;
    case binning::SchemeKind::SingleBin:
      forced = Predictor::UnitChoice{unit_.value_or(1), true};
      break;
    case binning::SchemeKind::Hybrid:
      throw std::invalid_argument(
          "Tuner: the hybrid scheme needs per-part plans; use "
          "binning::apply_scheme directly");
  }
  return AutoSpmv<T>(*a_, *predictor_, kind, profile_, forced,
                     format_mode_, format_policy_);
}

template class Tuner<float>;
template class Tuner<double>;

}  // namespace spmv::core
