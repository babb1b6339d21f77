package geo

import (
	"sort"
	"strings"
)

// CircleCover returns the set of geohash cells of the given precision whose
// rectangles intersect the circle (center, radiusKm), i.e. a complete cover
// of the circle with minimal cells at that precision (Section IV-B1: "a set
// of prefixes ... which completely covers the circle region while minimizing
// the area outside the query region").
//
// The result is sorted lexicographically, which is Z-order for geohashes,
// matching the contiguous layout of the inverted index in the DFS.
//
// The cover is computed by walking the regular lat/lon grid implied by the
// precision over the circle's bounding rectangles (two across the
// antimeridian, every longitude around a pole) and keeping cells whose
// minimum distance to the center is within the radius. A quadtree descent
// would produce the same set; the grid walk is simpler and exact for the
// uniform subdivision geohash uses.
func CircleCover(center Point, radiusKm float64, precision int) []string {
	if radiusKm < 0 {
		radiusKm = 0
	}
	latSpan, lonSpan := CellSizeDegrees(precision)
	seen := make(map[string]struct{})
	out := make([]string, 0, 8)
	for _, box := range BoundingRect(center, radiusKm) {
		// Snap the walk to cell boundaries so each step lands in a distinct cell.
		startLat := snapDown(box.MinLat, -90, latSpan)
		startLon := snapDown(box.MinLon, -180, lonSpan)
		for lat := startLat; lat <= box.MaxLat; lat += latSpan {
			cLat := lat + latSpan/2
			if cLat >= 90 || cLat <= -90 {
				continue
			}
			for lon := startLon; lon <= box.MaxLon; lon += lonSpan {
				cLon := lon + lonSpan/2
				if cLon >= 180 || cLon <= -180 {
					continue
				}
				h := Encode(Point{Lat: cLat, Lon: cLon}, precision)
				if _, dup := seen[h]; dup {
					continue
				}
				seen[h] = struct{}{}
				if MinDistanceKm(center, MustDecodeCell(h)) <= radiusKm {
					out = append(out, h)
				}
			}
		}
	}
	sort.Strings(out)
	return out
}

// snapDown returns the largest grid boundary origin+k*span that is <= v.
func snapDown(v, origin, span float64) float64 {
	k := int((v - origin) / span)
	snapped := origin + float64(k)*span
	if snapped > v {
		snapped -= span
	}
	return snapped
}

// PrefixCover returns the circle cover of Section IV-B1 as a minimal set
// of geohash *prefixes* of mixed lengths, up to maxPrecision characters:
// wherever all 32 children of a parent cell are needed, the parent prefix
// replaces them, recursively. This is the "set of prefixes ... which
// completely covers the circle region" the paper constructs via the
// Z-order curve; Expand inverts it back to fixed-length cells for index
// lookups. Prefixes are returned in lexicographic (Z-order) order.
func PrefixCover(center Point, radiusKm float64, maxPrecision int) []string {
	cells := CircleCover(center, radiusKm, maxPrecision)
	for precision := maxPrecision; precision > 1; precision-- {
		cells = mergeSiblings(cells, precision)
	}
	return cells
}

// mergeSiblings replaces every complete 32-sibling group at the given
// precision with its parent prefix. Input and output stay sorted.
func mergeSiblings(cells []string, precision int) []string {
	out := cells[:0]
	i := 0
	for i < len(cells) {
		if len(cells[i]) != precision {
			out = append(out, cells[i])
			i++
			continue
		}
		parent := cells[i][:precision-1]
		j := i
		for j < len(cells) && len(cells[j]) == precision && strings.HasPrefix(cells[j], parent) {
			j++
		}
		if j-i == 32 {
			out = append(out, parent)
		} else {
			out = append(out, cells[i:j]...)
		}
		i = j
	}
	return out
}

// Expand converts a prefix cover back to fixed-length cells at the given
// precision, in sorted order — the form the ⟨geohash, term⟩ index is keyed
// by. Prefixes longer than the precision are invalid and skipped.
func Expand(prefixes []string, precision int) []string {
	var out []string
	var grow func(prefix string)
	grow = func(prefix string) {
		if len(prefix) == precision {
			out = append(out, prefix)
			return
		}
		for i := 0; i < len(Base32Alphabet); i++ {
			grow(prefix + string(Base32Alphabet[i]))
		}
	}
	for _, p := range prefixes {
		if len(p) <= precision {
			grow(p)
		}
	}
	sort.Strings(out)
	return out
}

// CoverContains reports whether point p falls inside one of the cover cells.
// It is used by property tests: every point within the radius must be covered.
func CoverContains(cover []string, p Point) bool {
	if len(cover) == 0 {
		return false
	}
	precision := len(cover[0])
	h := Encode(p, precision)
	i := sort.SearchStrings(cover, h)
	return i < len(cover) && cover[i] == h
}
