#include "models/lstm.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <numeric>
#include <stdexcept>
#include <string>

#include "common/rng.hpp"
#include "common/stats.hpp"
#include "obs/metrics.hpp"
#include "simd/simd.hpp"

namespace leaf::models {

namespace {
inline double sigmoid(double x) { return 1.0 / (1.0 + std::exp(-x)); }
}  // namespace

/// Per-sample forward activations retained for BPTT.
struct Lstm::Workspace {
  // Indexed [t][...]; gate vectors are length H each.
  std::vector<std::vector<double>> x;       // chunk inputs
  std::vector<std::vector<double>> i, f, g, o;
  std::vector<std::vector<double>> c, h, tanh_c;
};

Lstm::Lstm(LstmConfig cfg) : cfg_(cfg) {}

double Lstm::forward(std::span<const double> z, Workspace* ws) const {
  const int H = cfg_.hidden;
  const int S = cfg_.chunk;
  std::vector<double> h(static_cast<std::size_t>(H), 0.0);
  std::vector<double> c(static_cast<std::size_t>(H), 0.0);
  std::vector<double> gates(static_cast<std::size_t>(4 * H));

  if (ws != nullptr) {
    const std::size_t T = static_cast<std::size_t>(timesteps_);
    ws->x.assign(T, {});
    ws->i.assign(T, {});
    ws->f.assign(T, {});
    ws->g.assign(T, {});
    ws->o.assign(T, {});
    ws->c.assign(T, {});
    ws->h.assign(T, {});
    ws->tanh_c.assign(T, {});
  }

  std::vector<double> xt(static_cast<std::size_t>(S));
  for (int t = 0; t < timesteps_; ++t) {
    // Chunk t of the feature vector, zero-padded at the tail.
    for (int s = 0; s < S; ++s) {
      const std::size_t idx = static_cast<std::size_t>(t * S + s);
      xt[static_cast<std::size_t>(s)] = idx < z.size() ? z[idx] : 0.0;
    }
    // Pre-activations: Wx x_t + Wh h + b, one dot kernel per weight row.
    for (int r = 0; r < 4 * H; ++r) {
      gates[static_cast<std::size_t>(r)] =
          b_[static_cast<std::size_t>(r)] +
          simd::dot(wx_.row(static_cast<std::size_t>(r)), xt) +
          simd::dot(wh_.row(static_cast<std::size_t>(r)), h);
    }
    std::vector<double> gi(static_cast<std::size_t>(H)), gf(static_cast<std::size_t>(H)),
        gg(static_cast<std::size_t>(H)), go(static_cast<std::size_t>(H)),
        tc(static_cast<std::size_t>(H));
    for (int k = 0; k < H; ++k) {
      gi[static_cast<std::size_t>(k)] = sigmoid(gates[static_cast<std::size_t>(k)]);
      gf[static_cast<std::size_t>(k)] = sigmoid(gates[static_cast<std::size_t>(H + k)]);
      gg[static_cast<std::size_t>(k)] = std::tanh(gates[static_cast<std::size_t>(2 * H + k)]);
      go[static_cast<std::size_t>(k)] = sigmoid(gates[static_cast<std::size_t>(3 * H + k)]);
      c[static_cast<std::size_t>(k)] = gf[static_cast<std::size_t>(k)] * c[static_cast<std::size_t>(k)] +
                                       gi[static_cast<std::size_t>(k)] * gg[static_cast<std::size_t>(k)];
      tc[static_cast<std::size_t>(k)] = std::tanh(c[static_cast<std::size_t>(k)]);
      h[static_cast<std::size_t>(k)] = go[static_cast<std::size_t>(k)] * tc[static_cast<std::size_t>(k)];
    }
    if (ws != nullptr) {
      const std::size_t ti = static_cast<std::size_t>(t);
      ws->x[ti] = xt;
      ws->i[ti] = std::move(gi);
      ws->f[ti] = std::move(gf);
      ws->g[ti] = std::move(gg);
      ws->o[ti] = std::move(go);
      ws->c[ti] = c;
      ws->h[ti] = h;
      ws->tanh_c[ti] = std::move(tc);
    }
  }

  return bo_ + simd::dot(wo_, h);
}

void Lstm::fit(const Matrix& X, std::span<const double> y,
               std::span<const double> w) {
  LEAF_SPAN("fit.LSTM");
  static obs::Counter& fits_ctr = obs::MetricsRegistry::global().counter(
      "leaf_model_fits_total", obs::label("family", "LSTM"));
  fits_ctr.inc();
  trained_ = false;
  if (!check_fit_args(X, y, w)) return;
  const int H = cfg_.hidden;
  const int S = cfg_.chunk;
  const std::size_t n = X.rows();
  timesteps_ = static_cast<int>((X.cols() + static_cast<std::size_t>(S) - 1) /
                                static_cast<std::size_t>(S));

  scaler_.fit(X);
  const Matrix Z = scaler_.transform(X);
  y_mean_ = stats::mean(y);
  y_std_ = stats::stddev(y);
  if (y_std_ < 1e-12) y_std_ = 1.0;
  std::vector<double> yz(n);
  for (std::size_t i = 0; i < n; ++i) yz[i] = (y[i] - y_mean_) / y_std_;

  // --- init -------------------------------------------------------------
  Rng rng(cfg_.seed);
  const double xs = 1.0 / std::sqrt(static_cast<double>(S));
  const double hs = 1.0 / std::sqrt(static_cast<double>(H));
  wx_ = Matrix(static_cast<std::size_t>(4 * H), static_cast<std::size_t>(S));
  wh_ = Matrix(static_cast<std::size_t>(4 * H), static_cast<std::size_t>(H));
  for (double& v : wx_.flat()) v = rng.normal(0.0, xs);
  for (double& v : wh_.flat()) v = rng.normal(0.0, hs);
  b_.assign(static_cast<std::size_t>(4 * H), 0.0);
  for (int k = 0; k < H; ++k) b_[static_cast<std::size_t>(H + k)] = 1.0;  // forget-gate bias
  wo_.assign(static_cast<std::size_t>(H), 0.0);
  for (double& v : wo_) v = rng.normal(0.0, hs);
  bo_ = 0.0;

  // --- Adam state ---------------------------------------------------------
  const std::size_t n_wx = wx_.flat().size();
  const std::size_t n_wh = wh_.flat().size();
  const std::size_t n_b = b_.size();
  const std::size_t n_wo = wo_.size();
  const std::size_t n_params = n_wx + n_wh + n_b + n_wo + 1;
  std::vector<double> m(n_params, 0.0), v2(n_params, 0.0), grad(n_params, 0.0);
  constexpr double kBeta1 = 0.9, kBeta2 = 0.999, kEps = 1e-8;
  std::int64_t step = 0;

  std::vector<std::size_t> order(n);
  std::iota(order.begin(), order.end(), std::size_t{0});

  Workspace ws;
  std::vector<double> dh(static_cast<std::size_t>(H));
  std::vector<double> dc(static_cast<std::size_t>(H));
  std::vector<double> dz(static_cast<std::size_t>(4 * H));

  for (int epoch = 0; epoch < cfg_.epochs; ++epoch) {
    rng.shuffle(order);
    double epoch_loss = 0.0;
    double epoch_weight = 0.0;

    for (std::size_t start = 0; start < n; start += static_cast<std::size_t>(cfg_.batch)) {
      const std::size_t end = std::min(n, start + static_cast<std::size_t>(cfg_.batch));
      std::fill(grad.begin(), grad.end(), 0.0);
      double batch_w = 0.0;

      for (std::size_t bi = start; bi < end; ++bi) {
        const std::size_t r = order[bi];
        const double wi = w.empty() ? 1.0 : w[r];
        if (wi <= 0.0) continue;
        batch_w += wi;

        const double pred = forward(Z.row(r), &ws);
        const double err = pred - yz[r];
        epoch_loss += wi * err * err;
        epoch_weight += wi;

        // Output layer gradients.
        const double dy = 2.0 * wi * err;
        double* g_wx = grad.data();
        double* g_wh = g_wx + n_wx;
        double* g_b = g_wh + n_wh;
        double* g_wo = g_b + n_b;
        double* g_bo = g_wo + n_wo;
        const auto& hT = ws.h[static_cast<std::size_t>(timesteps_ - 1)];
        for (int k = 0; k < H; ++k) {
          g_wo[k] += dy * hT[static_cast<std::size_t>(k)];
          dh[static_cast<std::size_t>(k)] = dy * wo_[static_cast<std::size_t>(k)];
        }
        *g_bo += dy;
        std::fill(dc.begin(), dc.end(), 0.0);

        // BPTT.
        for (int t = timesteps_ - 1; t >= 0; --t) {
          const std::size_t ti = static_cast<std::size_t>(t);
          const auto& gi = ws.i[ti];
          const auto& gf = ws.f[ti];
          const auto& gg = ws.g[ti];
          const auto& go = ws.o[ti];
          const auto& tc = ws.tanh_c[ti];
          for (int k = 0; k < H; ++k) {
            const std::size_t ki = static_cast<std::size_t>(k);
            const double dct =
                dc[ki] + dh[ki] * go[ki] * (1.0 - tc[ki] * tc[ki]);
            const double c_prev =
                t > 0 ? ws.c[ti - 1][ki] : 0.0;
            const double d_i = dct * gg[ki];
            const double d_f = dct * c_prev;
            const double d_g = dct * gi[ki];
            const double d_o = dh[ki] * tc[ki];
            dz[ki] = d_i * gi[ki] * (1.0 - gi[ki]);
            dz[static_cast<std::size_t>(H) + ki] = d_f * gf[ki] * (1.0 - gf[ki]);
            dz[static_cast<std::size_t>(2 * H) + ki] = d_g * (1.0 - gg[ki] * gg[ki]);
            dz[static_cast<std::size_t>(3 * H) + ki] = d_o * go[ki] * (1.0 - go[ki]);
            dc[ki] = dct * gf[ki];
          }
          // Accumulate parameter gradients and propagate dh.
          const auto& xt = ws.x[ti];
          const auto* h_prev = t > 0 ? &ws.h[ti - 1] : nullptr;
          std::fill(dh.begin(), dh.end(), 0.0);
          for (int rr = 0; rr < 4 * H; ++rr) {
            const std::size_t ri = static_cast<std::size_t>(rr);
            const double dzr = dz[ri];
            if (dzr == 0.0) continue;
            simd::axpy(dzr, xt,
                       {g_wx + ri * static_cast<std::size_t>(S),
                        static_cast<std::size_t>(S)});
            if (h_prev != nullptr) {
              simd::axpy(dzr, *h_prev,
                         {g_wh + ri * static_cast<std::size_t>(H),
                          static_cast<std::size_t>(H)});
            }
            simd::axpy(dzr, wh_.row(ri), dh);
            g_b[ri] += dzr;
          }
        }
      }

      if (batch_w <= 0.0) continue;
      for (double& g : grad) g /= batch_w;

      // Global-norm clip.
      const double norm = std::sqrt(simd::dot(grad, grad));
      const double clip_scale =
          norm > cfg_.grad_clip ? cfg_.grad_clip / norm : 1.0;

      // Adam.
      ++step;
      const double bc1 = 1.0 - std::pow(kBeta1, static_cast<double>(step));
      const double bc2 = 1.0 - std::pow(kBeta2, static_cast<double>(step));
      auto param_at = [&](std::size_t i) -> double* {
        if (i < n_wx) return &wx_.flat()[i];
        i -= n_wx;
        if (i < n_wh) return &wh_.flat()[i];
        i -= n_wh;
        if (i < n_b) return &b_[i];
        i -= n_b;
        if (i < n_wo) return &wo_[i];
        return &bo_;
      };
      for (std::size_t i = 0; i < n_params; ++i) {
        const double g = grad[i] * clip_scale;
        m[i] = kBeta1 * m[i] + (1.0 - kBeta1) * g;
        v2[i] = kBeta2 * v2[i] + (1.0 - kBeta2) * g * g;
        const double mhat = m[i] / bc1;
        const double vhat = v2[i] / bc2;
        *param_at(i) -= cfg_.learning_rate * mhat / (std::sqrt(vhat) + kEps);
      }
    }
    final_mse_ = epoch_weight > 0.0 ? epoch_loss / epoch_weight : 0.0;
  }
  trained_ = true;
}

double Lstm::predict_one(std::span<const double> x) const {
  assert(trained_);
  if (x.size() != scaler_.mean().size())
    throw std::invalid_argument(
        "lstm query has " + std::to_string(x.size()) +
        " features, trained on " + std::to_string(scaler_.mean().size()));
  std::vector<double> z(x.size());
  scaler_.transform_row(x, z);
  return forward(z, nullptr) * y_std_ + y_mean_;
}

std::unique_ptr<Regressor> Lstm::clone_untrained() const {
  return std::make_unique<Lstm>(cfg_);
}

void Lstm::save(io::Serializer& out) const {
  out.put_i32(cfg_.hidden);
  out.put_i32(cfg_.chunk);
  out.put_i32(cfg_.epochs);
  out.put_i32(cfg_.batch);
  out.put_f64(cfg_.learning_rate);
  out.put_f64(cfg_.grad_clip);
  out.put_u64(cfg_.seed);
  out.put_bool(trained_);
  out.put_i32(timesteps_);
  io::write(out, scaler_);
  out.put_f64(y_mean_);
  out.put_f64(y_std_);
  out.put_f64(final_mse_);
  io::write(out, wx_);
  io::write(out, wh_);
  out.put_doubles(b_);
  out.put_doubles(wo_);
  out.put_f64(bo_);
}

std::unique_ptr<Lstm> Lstm::load(io::Deserializer& in) {
  LstmConfig cfg;
  cfg.hidden = in.get_i32();
  cfg.chunk = in.get_i32();
  cfg.epochs = in.get_i32();
  cfg.batch = in.get_i32();
  cfg.learning_rate = in.get_f64();
  cfg.grad_clip = in.get_f64();
  cfg.seed = in.get_u64();
  auto model = std::make_unique<Lstm>(cfg);
  model->trained_ = in.get_bool();
  model->timesteps_ = in.get_i32();
  io::read_standardizer(in, model->scaler_);
  model->y_mean_ = in.get_f64();
  model->y_std_ = in.get_f64();
  model->final_mse_ = in.get_f64();
  model->wx_ = io::read_matrix(in);
  model->wh_ = io::read_matrix(in);
  model->b_ = in.get_doubles();
  model->wo_ = in.get_doubles();
  model->bo_ = in.get_f64();
  // fit() of a clone steps through batches of cfg.batch rows.
  if (cfg.hidden < 1 || cfg.chunk < 1 || cfg.batch < 1)
    throw io::SnapshotError("lstm hidden, chunk or batch size is not positive");
  // An untrained model has no parameters to restore.
  if (!model->trained_) return std::make_unique<Lstm>(cfg);
  // forward() dots each Wx row with a chunk-wide input slice and scans
  // ceil(width / chunk) of them, so every shape follows from the config
  // and the standardizer width.
  const auto h = static_cast<std::size_t>(cfg.hidden);
  const auto chunk = static_cast<std::size_t>(cfg.chunk);
  const std::size_t width = model->scaler_.mean().size();
  if (model->wx_.rows() != 4 * h || model->wx_.cols() != chunk ||
      model->wh_.rows() != 4 * h || model->wh_.cols() != h ||
      model->b_.size() != 4 * h || model->wo_.size() != h)
    throw io::SnapshotError("lstm parameter shapes inconsistent with config");
  if (static_cast<std::size_t>(model->timesteps_) !=
      (width + chunk - 1) / chunk)
    throw io::SnapshotError(
        "lstm timestep count inconsistent with its standardizer width");
  return model;
}

}  // namespace leaf::models
