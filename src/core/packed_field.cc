#include "core/packed_field.h"

#include <algorithm>

namespace rmcrt::core {

void PackedLevelField::pack(const RadiationFieldsView& fields) {
  assert(fields.abskg.valid() && fields.sigmaT4OverPi.valid() &&
         "packing needs the two property fields");
  assert(fields.sigmaT4OverPi.window() == fields.abskg.window() &&
         "property windows must coincide");
  assert((!fields.cellType.valid() ||
          fields.cellType.window() == fields.abskg.window()) &&
         "cellType window must coincide when present");
  m_window = fields.abskg.window();
  m_cells.assign(static_cast<std::size_t>(std::max<std::int64_t>(
                     m_window.volume(), 0)),
                 PackedCell{});
  m_hasWalls = false;
  repack(fields, m_window);
}

void PackedLevelField::repack(const RadiationFieldsView& fields,
                              const CellRange& region) {
  assert(valid() && "repack needs a prior full pack");
  const CellRange r = region.intersect(m_window);
  const PackedFieldView v = view();
  const bool hasCellType = fields.cellType.valid();
  for (const IntVector& c : r) {
    PackedCell& rec = m_cells[static_cast<std::size_t>(v.offsetOf(c))];
    rec.abskg = fields.abskg[c];
    rec.sigmaT4OverPi = fields.sigmaT4OverPi[c];
    rec.cellType = hasCellType
                       ? static_cast<std::uint32_t>(fields.cellType[c])
                       : PackedCell::kFlow;
    m_hasWalls = m_hasWalls || rec.cellType == PackedCell::kWall;
  }
}

PackedFieldView PackedLevelCache::refresh(
    const RadiationFieldsView& fields,
    const std::vector<CellRange>& coverage) {
  if (!m_field.valid() || m_field.window() != fields.abskg.window()) {
    m_field.pack(fields);
    m_coverage = coverage;
    ++m_fullPacks;
    return m_field.view();
  }
  const auto listed = [](const std::vector<CellRange>& boxes,
                         const CellRange& r) {
    return std::find(boxes.begin(), boxes.end(), r) != boxes.end();
  };
  // Regions entering coverage picked up averaged fine data; regions
  // leaving it reverted to the analytic coarse sample. Both must re-fuse;
  // everything else is value-identical to the cached records.
  for (const CellRange& r : coverage)
    if (!listed(m_coverage, r)) {
      m_field.repack(fields, r);
      ++m_regionRepacks;
    }
  for (const CellRange& r : m_coverage)
    if (!listed(coverage, r)) {
      m_field.repack(fields, r);
      ++m_regionRepacks;
    }
  m_coverage = coverage;
  return m_field.view();
}

}  // namespace rmcrt::core
