#include "dist/dist_verifier.hpp"

#include <fcntl.h>
#include <sys/mman.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <stdexcept>
#include <string_view>

#include "dist/image.hpp"
#include "mso/properties.hpp"
#include "runtime/executor.hpp"

namespace lanecert::dist {

namespace {

[[nodiscard]] std::size_t alignUp64(std::size_t x) {
  return (x + 63) & ~std::size_t{63};
}

[[noreturn]] void throwErrno(const char* what) {
  throw std::runtime_error(std::string("DistVerifier: ") + what + ": " +
                           std::strerror(errno));
}

/// Everything a forked child needs; plain pointers because the mapping and
/// the barrier fd are inherited, not transported.
struct WorkerConfig {
  const char* imageBase = nullptr;
  std::size_t imageBytes = 0;
  std::uint8_t* go = nullptr;
  /// The WHOLE shared verdict plane (n bytes); the worker writes only its
  /// partition's slice.
  std::uint8_t* verdicts = nullptr;
  std::uint32_t partition = 0;  ///< k in [0, K)
  int barrierFd = -1;           ///< read end of the start barrier
};

/// Blocks until every write end of the barrier is closed; true when the go
/// flag then asks for a sweep.
bool awaitRelease(const WorkerConfig& cfg) {
  char byte;
  while (::read(cfg.barrierFd, &byte, 1) < 0 && errno == EINTR) {
  }
  return std::atomic_ref<std::uint8_t>(*cfg.go).load(
             std::memory_order_acquire) != 0;
}

/// Child-process entry point after fork; never returns.  Validates the
/// image, builds the sorted label rows of partition k (the structure
/// VertexLabelIndex holds for the whole graph, for the owned vertices only),
/// waits at the barrier, sweeps if asked, and exits 0 — or exits 1 with a
/// message on stderr when the image or the property fails validation.
[[noreturn]] void runWorker(const WorkerConfig& cfg) {
  // Keep only the barrier's read end and stdio: a copy of another live
  // verifier's barrier write end held here would stall that verifier's
  // workers until this one exits.
  const auto keep = static_cast<unsigned>(cfg.barrierFd);
  if (keep > 3) ::close_range(3, keep - 1, 0);
  ::close_range(std::max(keep + 1, 3U), ~0U, 0);
  try {
    const ImageView img = ImageView::open({cfg.imageBase, cfg.imageBytes});
    const ImageMeta& meta = img.meta();
    const PropertyPtr prop = propertyByName(meta.property);
    if (!prop) {
      throw std::runtime_error("unknown property '" + meta.property + "'");
    }
    const auto [begin, end] = ParallelExecutor::shardRange(
        static_cast<std::size_t>(meta.numVertices), meta.workers,
        cfg.partition);
    const std::size_t owned = end - begin;
    const CoreVerifierEngine engine(prop, meta.params);
    ParallelExecutor exec(static_cast<int>(meta.threadsPerWorker));
    std::vector<CoreVerifierEngine::ThreadState> states(
        static_cast<std::size_t>(exec.numThreads()));

    const std::vector<std::string_view> labels = img.labelViews();
    std::vector<std::size_t> rowPtr(owned + 1, 0);
    for (std::size_t i = 0; i < owned; ++i) {
      rowPtr[i + 1] = rowPtr[i] + static_cast<std::size_t>(
                                      img.rowPtr(begin + i + 1) -
                                      img.rowPtr(begin + i));
    }
    std::vector<std::string_view> rows(rowPtr[owned]);
    exec.forShards(owned, [&](std::size_t, std::size_t b, std::size_t e) {
      for (std::size_t i = b; i < e; ++i) {
        const std::uint64_t arc = img.rowPtr(begin + i);
        for (std::size_t j = rowPtr[i]; j < rowPtr[i + 1]; ++j) {
          rows[j] = labels[img.arcEdge(arc + (j - rowPtr[i]))];
        }
        std::sort(rows.begin() + static_cast<std::ptrdiff_t>(rowPtr[i]),
                  rows.begin() + static_cast<std::ptrdiff_t>(rowPtr[i + 1]));
      }
    });

    if (awaitRelease(cfg)) {
      exec.forShards(owned, [&](std::size_t shard, std::size_t b,
                                std::size_t e) {
        for (std::size_t i = b; i < e; ++i) {
          EdgeView view;
          view.selfId = img.vertexIdOf(begin + i);
          view.incidentLabels = {rows.data() + rowPtr[i],
                                 rowPtr[i + 1] - rowPtr[i]};
          cfg.verdicts[begin + i] = engine.check(view, states[shard]) ? 1 : 0;
        }
      });
    }
    _exit(0);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "dist worker %u: %s\n", cfg.partition, e.what());
    _exit(1);
  }
}

}  // namespace

DistVerifier::DistVerifier(const Graph& g, const IdAssignment& ids,
                           const std::vector<std::string>& labels,
                           const std::string& property,
                           CoreVerifierParams params, DistOptions options)
    : numVertices_(static_cast<std::size_t>(g.numVertices())) {
  if (labels.size() != static_cast<std::size_t>(g.numEdges())) {
    throw std::invalid_argument("DistVerifier: one label per edge required");
  }
  if (!propertyByName(property)) {
    throw std::invalid_argument("DistVerifier: unknown property '" +
                                property + "'");
  }
  for (const std::string& l : labels) {
    maxLabelBits_ = std::max(maxLabelBits_, l.size() * 8);
    totalLabelBits_ += l.size() * 8;
  }
  const int count = std::max(1, options.workers);

  ImageMeta meta;
  meta.numVertices = numVertices_;
  meta.numEdges = static_cast<std::uint64_t>(g.numEdges());
  meta.workers = static_cast<std::uint32_t>(count);
  meta.threadsPerWorker = static_cast<std::uint32_t>(
      resolveThreadCount(options.threadsPerWorker));
  meta.params = params;
  meta.property = property;

  const std::size_t imageBytes = imageSizeBytes(g, labels, meta);
  const std::size_t goOffset = alignUp64(imageBytes);
  mapBytes_ = goOffset + 64 + numVertices_;
  void* map = ::mmap(nullptr, mapBytes_, PROT_READ | PROT_WRITE,
                     MAP_SHARED | MAP_ANONYMOUS, -1, 0);
  if (map == MAP_FAILED) throwErrno("mmap");
  map_ = static_cast<char*>(map);
  go_ = reinterpret_cast<std::uint8_t*>(map_ + goOffset);
  verdicts_ = go_ + 64;

  int barrier[2] = {-1, -1};
  try {
    writeImage(map_, imageBytes, g, ids, labels, meta);
    // Open the image exactly as a worker will, so a writer bug fails HERE,
    // loudly, instead of as a worker's exit status.
    (void)ImageView::open({map_, imageBytes});
    // O_CLOEXEC keeps the write end out of anything the process execs; our
    // own children drop their copy explicitly.
    if (::pipe2(barrier, O_CLOEXEC) != 0) throwErrno("pipe");
    barrierFd_ = barrier[1];
    WorkerConfig cfg{map_, imageBytes, go_, verdicts_, 0, barrier[0]};
    pids_.reserve(static_cast<std::size_t>(count));
    for (int k = 0; k < count; ++k) {
      cfg.partition = static_cast<std::uint32_t>(k);
      const pid_t pid = ::fork();
      if (pid < 0) throwErrno("fork");
      if (pid == 0) {
        ::close(barrierFd_);  // only the coordinator may hold the write end
        runWorker(cfg);
      }
      pids_.push_back(pid);
    }
  } catch (...) {
    if (barrier[0] >= 0) ::close(barrier[0]);
    (void)releaseAndReap(/*sweep=*/false);
    unmap();
    throw;
  }
  ::close(barrier[0]);
}

DistVerifier::~DistVerifier() {
  if (!released_) (void)releaseAndReap(/*sweep=*/false);
  unmap();
}

void DistVerifier::unmap() {
  if (map_ != nullptr) ::munmap(map_, mapBytes_);
  map_ = nullptr;
}

std::pair<std::size_t, std::size_t> DistVerifier::partitionRange(
    int k) const {
  return ParallelExecutor::shardRange(numVertices_, pids_.size(),
                                      static_cast<std::size_t>(k));
}

std::string DistVerifier::releaseAndReap(bool sweep) {
  released_ = true;
  std::atomic_ref<std::uint8_t>(*go_).store(sweep ? 1 : 0,
                                            std::memory_order_release);
  if (barrierFd_ >= 0) ::close(barrierFd_);
  barrierFd_ = -1;
  std::string failure;
  for (std::size_t k = 0; k < pids_.size(); ++k) {
    int status = 0;
    pid_t reaped;
    do {
      reaped = ::waitpid(pids_[k], &status, 0);
    } while (reaped < 0 && errno == EINTR);
    std::string why;
    if (reaped < 0) {
      why = std::string("could not be reaped: ") + std::strerror(errno);
    } else if (WIFSIGNALED(status)) {
      ++stats_.workerDeaths;
      why = "was killed by signal " + std::to_string(WTERMSIG(status));
    } else if (WEXITSTATUS(status) != 0) {
      why = "exited with status " + std::to_string(WEXITSTATUS(status));
    }
    if (failure.empty() && !why.empty()) {
      failure = "dist: worker " + std::to_string(k) + " " + why;
    }
  }
  return failure;
}

SimulationResult DistVerifier::verifyAll() {
  if (!released_) {
    failure_ = releaseAndReap(/*sweep=*/true);
    if (failure_.empty()) ++stats_.sweeps;
  }
  if (!failure_.empty()) throw std::runtime_error(failure_);
  return assemble();
}

SimulationResult DistVerifier::assemble() const {
  SimulationResult r;
  r.maxLabelBits = maxLabelBits_;
  r.totalLabelBits = totalLabelBits_;
  for (std::size_t vi = 0; vi < numVertices_; ++vi) {
    if (verdicts_[vi] == 0) r.rejecting.push_back(static_cast<VertexId>(vi));
  }
  r.allAccept = r.rejecting.empty();
  return r;
}

}  // namespace lanecert::dist
