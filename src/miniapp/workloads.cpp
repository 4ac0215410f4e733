#include "pa/miniapp/workloads.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <sstream>

#include "pa/common/error.h"
#include "pa/common/time_utils.h"

namespace pa::miniapp {

std::vector<core::ComputeUnitDescription> make_task_batch(
    std::size_t count, int cores_per_task,
    const pa::DurationDistribution& duration, pa::Rng& rng, bool real_work) {
  PA_REQUIRE_ARG(cores_per_task > 0, "tasks need cores");
  std::vector<core::ComputeUnitDescription> out;
  out.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    core::ComputeUnitDescription d;
    d.name = "task-" + std::to_string(i);
    d.cores = cores_per_task;
    d.duration = duration.sample(rng);
    if (real_work) {
      const double burn = d.duration;
      d.work = [burn]() { pa::burn_cpu(burn); };
    }
    out.push_back(std::move(d));
  }
  return out;
}

std::vector<std::string> generate_text_corpus(std::size_t lines,
                                              std::size_t words_per_line,
                                              std::size_t vocabulary,
                                              std::uint64_t seed) {
  PA_REQUIRE_ARG(vocabulary > 0, "empty vocabulary");
  pa::Rng rng(seed);
  // Zipf sampling by inverse-CDF over harmonic weights.
  std::vector<double> cdf(vocabulary);
  double total = 0.0;
  for (std::size_t i = 0; i < vocabulary; ++i) {
    total += 1.0 / static_cast<double>(i + 1);
    cdf[i] = total;
  }
  for (auto& v : cdf) {
    v /= total;
  }
  auto sample_word = [&]() {
    const double u = rng.uniform();
    const auto it = std::lower_bound(cdf.begin(), cdf.end(), u);
    const std::size_t rank =
        static_cast<std::size_t>(std::distance(cdf.begin(), it));
    // Appended rather than `"w" + ...`, which GCC 12 flags with a false
    // -Wrestrict warning.
    std::string word = "w";
    word += std::to_string(rank);
    return word;
  };
  std::vector<std::string> corpus;
  corpus.reserve(lines);
  for (std::size_t l = 0; l < lines; ++l) {
    std::string line;
    for (std::size_t w = 0; w < words_per_line; ++w) {
      if (w != 0) {
        line += ' ';
      }
      line += sample_word();
    }
    corpus.push_back(std::move(line));
  }
  return corpus;
}

std::vector<std::string> split_words(const std::string& line) {
  std::vector<std::string> out;
  std::istringstream iss(line);
  std::string word;
  while (iss >> word) {
    out.push_back(word);
  }
  return out;
}

std::string generate_dna(std::size_t length, std::uint64_t seed) {
  static constexpr char kBases[] = {'A', 'C', 'G', 'T'};
  pa::Rng rng(seed);
  std::string out;
  out.resize(length);
  for (std::size_t i = 0; i < length; ++i) {
    out[i] = kBases[rng.uniform_int(0, 3)];
  }
  return out;
}

std::vector<std::string> generate_reads(const std::string& reference,
                                        std::size_t count,
                                        std::size_t read_length,
                                        double error_rate,
                                        std::uint64_t seed) {
  PA_REQUIRE_ARG(reference.size() >= read_length && read_length > 0,
                 "reference shorter than read length");
  static constexpr char kBases[] = {'A', 'C', 'G', 'T'};
  pa::Rng rng(seed);
  std::vector<std::string> reads;
  reads.reserve(count);
  const auto max_start =
      static_cast<std::int64_t>(reference.size() - read_length);
  for (std::size_t i = 0; i < count; ++i) {
    const auto start = static_cast<std::size_t>(rng.uniform_int(0, max_start));
    std::string read = reference.substr(start, read_length);
    for (auto& base : read) {
      if (rng.bernoulli(error_rate)) {
        base = kBases[rng.uniform_int(0, 3)];
      }
    }
    reads.push_back(std::move(read));
  }
  return reads;
}

std::vector<std::string> extract_kmers(const std::string& sequence,
                                       std::size_t k) {
  PA_REQUIRE_ARG(k > 0, "k must be positive");
  std::vector<std::string> out;
  if (sequence.size() < k) {
    return out;
  }
  out.reserve(sequence.size() - k + 1);
  for (std::size_t i = 0; i + k <= sequence.size(); ++i) {
    out.push_back(sequence.substr(i, k));
  }
  return out;
}

DetectorFrame generate_frame(std::uint32_t width, std::uint32_t height,
                             int peaks, pa::Rng& rng) {
  PA_REQUIRE_ARG(width > 0 && height > 0, "empty frame");
  DetectorFrame frame;
  frame.width = width;
  frame.height = height;
  frame.pixels.resize(static_cast<std::size_t>(width) * height);
  // Background: ~Poisson(50) counts.
  for (auto& px : frame.pixels) {
    px = static_cast<std::uint16_t>(std::min<std::int64_t>(
        65535, rng.poisson(50.0)));
  }
  // Gaussian peaks of amplitude ~2000, sigma ~1.5 px.
  for (int p = 0; p < peaks; ++p) {
    const double cx = rng.uniform(3.0, width - 4.0);
    const double cy = rng.uniform(3.0, height - 4.0);
    const double amp = rng.uniform(1500.0, 3000.0);
    const double sigma = rng.uniform(1.0, 2.0);
    const int radius = static_cast<int>(3.0 * sigma) + 1;
    for (int dy = -radius; dy <= radius; ++dy) {
      for (int dx = -radius; dx <= radius; ++dx) {
        const int x = static_cast<int>(cx) + dx;
        const int y = static_cast<int>(cy) + dy;
        if (x < 0 || y < 0 || x >= static_cast<int>(width) ||
            y >= static_cast<int>(height)) {
          continue;
        }
        const double r2 = (x - cx) * (x - cx) + (y - cy) * (y - cy);
        const double add = amp * std::exp(-r2 / (2.0 * sigma * sigma));
        auto& px = frame.pixels[static_cast<std::size_t>(y) * width +
                                static_cast<std::size_t>(x)];
        px = static_cast<std::uint16_t>(
            std::min<double>(65535.0, px + add));
      }
    }
  }
  return frame;
}

std::string serialize_frame(const DetectorFrame& frame) {
  std::string out;
  out.resize(2 * sizeof(std::uint32_t) +
             frame.pixels.size() * sizeof(std::uint16_t));
  char* p = out.data();
  std::memcpy(p, &frame.width, sizeof(frame.width));
  p += sizeof(frame.width);
  std::memcpy(p, &frame.height, sizeof(frame.height));
  p += sizeof(frame.height);
  std::memcpy(p, frame.pixels.data(),
              frame.pixels.size() * sizeof(std::uint16_t));
  return out;
}

DetectorFrame deserialize_frame(const std::string& bytes) {
  PA_REQUIRE_ARG(bytes.size() >= 2 * sizeof(std::uint32_t),
                 "truncated frame");
  DetectorFrame frame;
  const char* p = bytes.data();
  std::memcpy(&frame.width, p, sizeof(frame.width));
  p += sizeof(frame.width);
  std::memcpy(&frame.height, p, sizeof(frame.height));
  p += sizeof(frame.height);
  const std::size_t n = static_cast<std::size_t>(frame.width) * frame.height;
  PA_REQUIRE_ARG(bytes.size() ==
                     2 * sizeof(std::uint32_t) + n * sizeof(std::uint16_t),
                 "corrupt frame");
  frame.pixels.resize(n);
  std::memcpy(frame.pixels.data(), p, n * sizeof(std::uint16_t));
  return frame;
}

ReconstructionResult reconstruct_frame(const DetectorFrame& frame) {
  const std::uint32_t w = frame.width;
  const std::uint32_t h = frame.height;
  PA_REQUIRE_ARG(w >= 3 && h >= 3, "frame too small to reconstruct");

  // 3x3 box smoothing.
  std::vector<double> smooth(static_cast<std::size_t>(w) * h, 0.0);
  for (std::uint32_t y = 1; y + 1 < h; ++y) {
    for (std::uint32_t x = 1; x + 1 < w; ++x) {
      double sum = 0.0;
      for (int dy = -1; dy <= 1; ++dy) {
        for (int dx = -1; dx <= 1; ++dx) {
          sum += frame.at(x + static_cast<std::uint32_t>(dx),
                          y + static_cast<std::uint32_t>(dy));
        }
      }
      smooth[static_cast<std::size_t>(y) * w + x] = sum / 9.0;
    }
  }

  // Background statistics from the smoothed field (median-free estimate:
  // mean/sigma are fine for Poisson background).
  double mean = 0.0;
  for (const double v : smooth) {
    mean += v;
  }
  mean /= static_cast<double>(smooth.size());
  double var = 0.0;
  for (const double v : smooth) {
    var += (v - mean) * (v - mean);
  }
  var /= static_cast<double>(smooth.size());
  const double sigma = std::sqrt(var);
  const double threshold = mean + 5.0 * std::max(sigma, 1.0);

  // Local maxima above threshold.
  int peaks = 0;
  for (std::uint32_t y = 1; y + 1 < h; ++y) {
    for (std::uint32_t x = 1; x + 1 < w; ++x) {
      const double v = smooth[static_cast<std::size_t>(y) * w + x];
      if (v < threshold) {
        continue;
      }
      bool is_max = true;
      for (int dy = -1; dy <= 1 && is_max; ++dy) {
        for (int dx = -1; dx <= 1; ++dx) {
          if (dx == 0 && dy == 0) {
            continue;
          }
          const double nb =
              smooth[static_cast<std::size_t>(y + static_cast<std::uint32_t>(dy)) * w +
                     (x + static_cast<std::uint32_t>(dx))];
          if (nb > v) {
            is_max = false;
            break;
          }
        }
      }
      if (is_max) {
        ++peaks;
      }
    }
  }

  ReconstructionResult result;
  result.peaks_found = peaks;
  result.background_mean = mean;
  result.background_sigma = sigma;
  return result;
}

}  // namespace pa::miniapp
