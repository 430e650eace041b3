#pragma once
/// \file snapshot.hpp
/// \brief Versioned, checksummed binary snapshots of the library's
/// expensive-to-build objects — CRS graphs and matrices, partitions, and
/// built Galerkin hierarchies — laid out for zero-copy `mmap` serving.
///
/// The paper's central economy is setup amortization: MIS-2 coarsening and
/// Galerkin triple products are paid once and reused across many solves.
/// A snapshot extends that economy across *processes*: a build job runs
/// the expensive setup offline and `save_snapshot`s it; any number of
/// serving workers `SnapshotView::open` the file read-only and bind spans
/// directly into the mapping — opening a multi-gigabyte hierarchy costs
/// page-table entries, not copies (the osrm-backend storage/customize
/// split, which the ROADMAP names as the exemplar shape).
///
/// File layout (all integers little-endian, native-width as recorded in
/// the header so a reader on a mismatched platform rejects instead of
/// misreading):
///
///   [Header]                 magic "PMISSNAP", format version, endian tag,
///                            element widths, file size, TOC location+digest
///   [section bytes ...]      each section 64-byte aligned
///   [TOC]                    one fixed-size entry per section:
///                            name, kind, offset, size, FNV-1a digest
///
/// Objects are groups of sections sharing a name prefix: a matrix "a" is
/// `a.meta` + `a.row_map` + `a.entries` + `a.values`; a hierarchy "h" is
/// `h.meta` plus per-level operator/transfer matrices and — when the
/// handle kept one — the Galerkin rebuild workspace, so a *loaded*
/// hierarchy still supports the warm zero-allocation `rebuild_galerkin`
/// customize path.
///
/// Integrity: every section carries an FNV-1a digest (`check::digest`),
/// and the TOC itself is digested in the header. `open()` validates magic,
/// version, endianness, element widths, bounds of every section, and (by
/// default) every digest before returning; any mismatch throws a
/// `SnapshotError` that names the file, the section, and the byte range —
/// a truncated or bit-flipped file is rejected up front, never mapped into
/// a solver.

#include <cstdint>
#include <cstdio>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/config.hpp"
#include "graph/crs.hpp"
#include "multilevel/hierarchy.hpp"

namespace parmis::serve {

/// Snapshot format version this build writes and reads.
inline constexpr std::uint32_t kSnapshotVersion = 1;

/// Rejection diagnostic: which file, which section (empty for file-level
/// problems like a bad magic), and what was wrong. The what() string
/// carries all three, e.g.
///   snapshot 'hier.snap': section 'a.values' digest mismatch
///   (stored 0x1234..., computed 0xabcd...)
class SnapshotError : public std::runtime_error {
 public:
  SnapshotError(std::string path, std::string section, const std::string& detail);

  [[nodiscard]] const std::string& path() const { return path_; }
  [[nodiscard]] const std::string& section() const { return section_; }

 private:
  std::string path_;
  std::string section_;
};

/// What a section's bytes are: element type tags, so a reader never
/// reinterprets an array at the wrong width even if names collide.
enum class SectionKind : std::uint32_t {
  Meta = 1,          ///< fixed-size object descriptor struct
  OffsetArray = 2,   ///< offset_t[]
  OrdinalArray = 3,  ///< ordinal_t[]
  ScalarArray = 4,   ///< scalar_t[]
};

/// One TOC entry, exactly as stored on disk.
struct SectionInfo {
  char name[40];          ///< NUL-terminated section name
  std::uint32_t kind;     ///< SectionKind
  std::uint32_t reserved; ///< zero
  std::uint64_t offset;   ///< byte offset from file start (64-aligned)
  std::uint64_t size;     ///< byte length
  std::uint64_t digest;   ///< FNV-1a of the section bytes
};
static_assert(sizeof(SectionInfo) == 72);

/// Streaming snapshot writer: add objects, then `finish()` (or let the
/// destructor). Section names derive from the object name you pass
/// ("a" → "a.meta", "a.row_map", ...); names must be unique per file and
/// the full section name must fit 39 characters.
class SnapshotWriter {
 public:
  /// Opens `path` for writing (truncates). Throws SnapshotError on
  /// failure.
  explicit SnapshotWriter(std::string path);
  ~SnapshotWriter() noexcept;
  SnapshotWriter(const SnapshotWriter&) = delete;
  SnapshotWriter& operator=(const SnapshotWriter&) = delete;

  void add_graph(const std::string& name, const graph::CrsGraph& g);
  void add_matrix(const std::string& name, const graph::CrsMatrix& a);
  /// `labels[v]` = part of vertex v, `num_parts` parts.
  void add_partition(const std::string& name, std::span<const ordinal_t> labels,
                     ordinal_t num_parts);
  /// A built Galerkin hierarchy: operator levels, transfers, inverted
  /// diagonals, and — when the handle holds one — the per-level rebuild
  /// workspace (`phat`/`ap`/`apc`/`tperm`), so the loaded hierarchy keeps
  /// the warm `rebuild_galerkin` contract. A level built by the fused
  /// Galerkin kernel stores no A·P: its `.apc` section holds an empty 0×0
  /// matrix, and loading sizes the fused scratch instead. Throws
  /// std::invalid_argument if the handle has no Galerkin levels.
  void add_hierarchy(const std::string& name, const multilevel::HierarchyHandle& h);

  /// Write the TOC + header and close. Throws SnapshotError on I/O
  /// failure. Idempotent.
  void finish();

 private:
  void add_section(const std::string& name, SectionKind kind, const void* data,
                   std::uint64_t size);
  template <typename T>
  void add_array(const std::string& name, SectionKind kind, std::span<const T> v) {
    add_section(name, kind, v.data(), v.size() * sizeof(T));
  }
  void add_matrix_like(const std::string& name, const graph::CrsMatrix& a, bool with_values);

  std::string path_;
  std::FILE* file_ = nullptr;
  std::uint64_t pos_ = 0;
  std::vector<SectionInfo> toc_;
  bool finished_ = false;
};

/// Convenience: write one matrix (named "a") and optionally one built
/// hierarchy (named "hierarchy") — the shape `parmis_serve build` and the
/// serving runtime agree on.
void save_snapshot(const std::string& path, const graph::CrsMatrix& a,
                   const multilevel::HierarchyHandle* hierarchy = nullptr);

/// Non-owning CRS matrix bound into a read-only mapping: spans point at
/// the file bytes, zero copies. Valid only while the SnapshotView that
/// produced it is alive.
struct MatrixView {
  ordinal_t num_rows{0};
  ordinal_t num_cols{0};
  std::span<const offset_t> row_map;
  std::span<const ordinal_t> entries;
  std::span<const scalar_t> values;  ///< empty for a graph section group

  [[nodiscard]] offset_t num_entries() const {
    return row_map.empty() ? 0 : row_map.back();
  }
  /// One owning copy (for consumers that need `graph::CrsMatrix`).
  [[nodiscard]] graph::CrsMatrix materialize() const;
};

/// Read-only mapped snapshot. `open()` maps the file and validates it;
/// every `bind_*` returns spans into the mapping (zero copies), every
/// `load_*`/`materialize_*` makes one owning copy. Movable, not copyable;
/// unmaps on destruction.
class SnapshotView {
 public:
  SnapshotView() = default;
  ~SnapshotView() noexcept;
  SnapshotView(SnapshotView&& other) noexcept;
  SnapshotView& operator=(SnapshotView&& other) noexcept;
  SnapshotView(const SnapshotView&) = delete;
  SnapshotView& operator=(const SnapshotView&) = delete;

  /// Map `path` read-only and validate: magic, format version, endianness,
  /// element widths, section bounds/alignment, and (unless `verify` is
  /// false) every section digest plus the TOC digest. Throws SnapshotError
  /// naming file + section + byte range on any rejection — a corrupted or
  /// truncated file never escapes this function.
  [[nodiscard]] static SnapshotView open(const std::string& path, bool verify = true);

  [[nodiscard]] const std::string& path() const { return path_; }
  [[nodiscard]] std::uint64_t file_size() const { return size_; }
  /// All sections, TOC order.
  [[nodiscard]] const std::vector<SectionInfo>& sections() const { return toc_; }
  /// Does a section group (object) with this name exist?
  [[nodiscard]] bool contains(const std::string& name) const;

  /// Bind a stored graph as a kernel-ready `graph::GraphView` whose
  /// pointers land inside the mapping — MIS-2, coarsening, and
  /// partitioning run directly on the file bytes.
  [[nodiscard]] graph::GraphView bind_graph(const std::string& name) const;
  /// Bind a stored matrix (or graph) zero-copy.
  [[nodiscard]] MatrixView bind_matrix(const std::string& name) const;
  /// Bind stored partition labels; `num_parts` (optional out) receives k.
  [[nodiscard]] std::span<const ordinal_t> bind_partition(const std::string& name,
                                                          ordinal_t* num_parts = nullptr) const;

  /// Owning copy of a stored matrix.
  [[nodiscard]] graph::CrsMatrix materialize_matrix(const std::string& name) const;

  /// Number of operator levels of a stored hierarchy.
  [[nodiscard]] int hierarchy_levels(const std::string& name) const;
  /// Did the stored hierarchy keep its Galerkin rebuild workspace?
  [[nodiscard]] bool hierarchy_has_workspace(const std::string& name) const;
  /// Copy a stored hierarchy into `h` (one materialization — level arrays
  /// are owning) via the multilevel bind hook: afterwards `h.ops()` is the
  /// level stack and, if the snapshot kept the workspace, warm
  /// `rebuild_galerkin` works exactly as on the handle that was saved.
  void load_hierarchy(const std::string& name, multilevel::HierarchyHandle& h) const;
  /// The level stack alone (what the serving runtime publishes).
  [[nodiscard]] std::vector<multilevel::OperatorLevel> load_levels(
      const std::string& name) const;

 private:
  [[nodiscard]] const SectionInfo& find(const std::string& name) const;
  [[nodiscard]] const SectionInfo* find_opt(const std::string& name) const;
  [[nodiscard]] const std::byte* section_data(const SectionInfo& s) const;
  template <typename T>
  [[nodiscard]] std::span<const T> array(const std::string& name, SectionKind kind) const;
  [[nodiscard]] MatrixView bind_matrix_like(const std::string& name, bool expect_values) const;
  void unmap() noexcept;

  std::string path_;
  void* map_ = nullptr;
  std::uint64_t size_ = 0;
  std::vector<SectionInfo> toc_;
};

}  // namespace parmis::serve
