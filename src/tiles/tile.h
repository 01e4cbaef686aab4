// A JSON tile: a chunk of consecutive tuples with locally-extracted
// relational columns plus a header describing what was seen and materialized
// (paper §2.2, §3.1, §4.4).

#ifndef JSONTILES_TILES_TILE_H_
#define JSONTILES_TILES_TILE_H_

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "json/jsonb.h"
#include "tiles/column.h"
#include "tiles/stats.h"
#include "tiles/tile_config.h"
#include "util/bloom_filter.h"

namespace jsontiles::tiles {

struct ExtractedColumn {
  /// Encoded key path of the extracted values.
  std::string path;
  /// The JSON value type that was extracted for this path (§3.4: the most
  /// common type; other types stay in the binary JSON).
  json::JsonType source_type;
  /// Relational storage type of `column`.
  ColumnType storage_type;
  /// §4.4: whether this path also occurs with other value types in the tile
  /// (those tuples hold null here and are answered from the binary JSON).
  bool has_type_outliers = false;
  /// §4.4: whether null entries are possible (absent keys or outliers).
  bool nullable = false;
  /// §4.9: true when the source was a string column detected as date/time
  /// and materialized as SQL Timestamp.
  bool is_timestamp = false;
  Column column{ColumnType::kInt64};

  /// Zone map (extension of §4.8 skipping): min/max of the non-null values
  /// of Int64/Float64/Timestamp columns. Range predicates against constants
  /// can skip whole tiles. Only trustworthy when the path has no type
  /// outliers (outlier values live in the binary JSON, outside the map).
  bool has_minmax = false;
  int64_t min_i = 0, max_i = 0;  // Int64 / Timestamp
  double min_d = 0, max_d = 0;   // Float64
};

/// Header + materialized columns for `row_count` tuples starting at global
/// row `row_begin`. The tile does not own the binary JSON documents; the
/// relation does.
class Tile {
 public:
  Tile() : seen_paths_(64) {}

  size_t row_begin = 0;
  size_t row_count = 0;

  std::vector<ExtractedColumn> columns;
  TileStats stats;

  /// Column lookup by encoded path; nullptr when not materialized.
  const ExtractedColumn* FindColumn(std::string_view path) const;
  ExtractedColumn* FindColumn(std::string_view path);

  /// §4.8: false means *no* tuple in this tile contains the path, so a
  /// null-rejecting expression can skip the whole tile. Uses the extracted
  /// set first, then the bloom filter over non-extracted seen paths.
  bool MayContainPath(std::string_view path) const;

  /// Register a path seen but not extracted (bloom filter, §4.4). All
  /// prefixes are inserted as well so that queries against intermediate
  /// levels (e.g. array containment on `entities.hashtags`) do not skip
  /// tiles that contain the data under longer leaf paths.
  void AddSeenPath(std::string_view path);

  /// (Re)build the path -> column lookup. Leaves the bloom filter alone:
  /// the builder adds the column paths to it, a reader restores it whole.
  void BuildColumnIndex();

  /// Serialization support for the header bloom filter.
  const BloomFilter& seen_paths() const { return seen_paths_; }
  void RestoreSeenPaths(BloomFilter filter) { seen_paths_ = std::move(filter); }

  /// §4.7: outliers (updated documents that no longer overlap the extracted
  /// schema). Recomputation is advised once the majority of tuples mismatch.
  size_t outlier_count = 0;
  bool NeedsRecompute() const { return outlier_count * 2 > row_count; }

  /// Approximate memory of all materialized columns (Table 6).
  size_t ColumnMemoryBytes() const;

 private:
  std::unordered_map<std::string, size_t> column_index_;
  BloomFilter seen_paths_;
};

/// §4.7: apply an updated document to a row of a tile. Extracted columns are
/// updated in place; keys absent from the new document become null; new key
/// paths are added to the header bloom filter so scans do not skip the tile
/// incorrectly. Returns true when the update made the row an outlier (no
/// overlap with the extracted schema).
bool UpdateTileRow(Tile* tile, size_t row_in_tile, json::JsonbValue new_doc,
                   const TileConfig& config);

}  // namespace jsontiles::tiles

#endif  // JSONTILES_TILES_TILE_H_
