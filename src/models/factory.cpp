#include "models/factory.hpp"

#include "models/forest.hpp"
#include "models/gbdt.hpp"
#include "models/knn.hpp"
#include "models/lstm.hpp"
#include "models/ridge.hpp"

namespace leaf::models {

std::string to_string(ModelFamily f) {
  switch (f) {
    case ModelFamily::kGbdt: return "GBDT";
    case ModelFamily::kLightGbdt: return "LightGBDT";
    case ModelFamily::kRandomForest: return "RandomForest";
    case ModelFamily::kExtraTrees: return "ExtraTrees";
    case ModelFamily::kKnn: return "KNeighbors";
    case ModelFamily::kLstm: return "LSTM";
    case ModelFamily::kRidge: return "Ridge";
  }
  return "?";
}

std::string paper_name(ModelFamily f) {
  switch (f) {
    case ModelFamily::kGbdt: return "CatBoost*";
    case ModelFamily::kLightGbdt: return "LightGBM*";
    case ModelFamily::kRandomForest: return "RandomForest*";
    case ModelFamily::kExtraTrees: return "ExtraTrees*";
    case ModelFamily::kKnn: return "KNeighbors*";
    case ModelFamily::kLstm: return "LSTM*";
    case ModelFamily::kRidge: return "Ridge";
  }
  return "?";
}

bool parse_model_family(const std::string& name, ModelFamily& out) {
  for (ModelFamily f :
       {ModelFamily::kGbdt, ModelFamily::kLightGbdt, ModelFamily::kRandomForest,
        ModelFamily::kExtraTrees, ModelFamily::kKnn, ModelFamily::kLstm,
        ModelFamily::kRidge}) {
    if (to_string(f) == name) {
      out = f;
      return true;
    }
  }
  return false;
}

std::vector<ModelFamily> table4_families() {
  return {ModelFamily::kGbdt, ModelFamily::kExtraTrees, ModelFamily::kLstm,
          ModelFamily::kKnn};
}

std::unique_ptr<Regressor> make_model(ModelFamily f, const Scale& scale,
                                      std::uint64_t seed) {
  switch (f) {
    case ModelFamily::kGbdt:
      return std::make_unique<Gbdt>(
          GbdtConfig::catboost_like(scale.gbdt_trees, seed), "GBDT");
    case ModelFamily::kLightGbdt:
      return std::make_unique<Gbdt>(
          GbdtConfig::lightgbm_like(scale.gbdt_trees, seed), "LightGBDT");
    case ModelFamily::kRandomForest:
      return std::make_unique<Forest>(
          ForestConfig::random_forest(scale.forest_trees, seed),
          "RandomForest");
    case ModelFamily::kExtraTrees:
      return std::make_unique<Forest>(
          ForestConfig::extra_trees(scale.forest_trees, seed), "ExtraTrees");
    case ModelFamily::kKnn:
      return std::make_unique<Knn>();
    case ModelFamily::kLstm: {
      LstmConfig cfg;
      cfg.hidden = scale.lstm_hidden;
      cfg.epochs = scale.lstm_epochs;
      cfg.seed = seed;
      return std::make_unique<Lstm>(cfg);
    }
    case ModelFamily::kRidge:
      return std::make_unique<Ridge>();
  }
  return nullptr;
}

void save_regressor(io::Serializer& out, const Regressor& model) {
  out.put_string(model.serial_key());  // throws for unsupported families
  model.save(out);
}

std::unique_ptr<Regressor> load_regressor(io::Deserializer& in) {
  const std::string key = in.get_string();
  if (key == "gbdt") return Gbdt::load(in);
  if (key == "forest") return Forest::load(in);
  if (key == "knn") return Knn::load(in);
  if (key == "lstm") return Lstm::load(in);
  if (key == "ridge") return Ridge::load(in);
  throw io::SnapshotError("unknown model factory key '" + key + "'");
}

}  // namespace leaf::models
