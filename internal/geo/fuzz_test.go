package geo

import (
	"math"
	"testing"
)

// FuzzEncodeDecode checks the round-trip invariant for arbitrary inputs:
// the decoded cell of a point's geohash contains the point, at every
// precision.
func FuzzEncodeDecode(f *testing.F) {
	f.Add(43.6839128037, -79.37356590)
	f.Add(-23.994140625, -46.23046875)
	f.Add(0.0, 0.0)
	f.Add(89.9999, 179.9999)
	f.Add(-89.9999, -179.9999)
	f.Fuzz(func(t *testing.T, lat, lon float64) {
		p := Point{Lat: lat, Lon: lon}
		if !p.Valid() {
			t.Skip()
		}
		for _, precision := range []int{1, 4, 8} {
			h := Encode(p, precision)
			if len(h) != precision {
				t.Fatalf("Encode length %d != precision %d", len(h), precision)
			}
			cell, err := DecodeCell(h)
			if err != nil {
				t.Fatalf("DecodeCell(%q): %v", h, err)
			}
			if !cell.Contains(p) {
				t.Fatalf("cell %q does not contain %v", h, p)
			}
		}
	})
}

// FuzzDecodeCell checks that arbitrary strings never panic the decoder.
func FuzzDecodeCell(f *testing.F) {
	f.Add("6gxp")
	f.Add("")
	f.Add("zzzzzzzzzzzzzz")
	f.Add("a")
	f.Fuzz(func(t *testing.T, s string) {
		cell, err := DecodeCell(s)
		if err != nil {
			return
		}
		if cell.MinLat > cell.MaxLat || cell.MinLon > cell.MaxLon {
			t.Fatalf("inverted cell from %q: %+v", s, cell)
		}
	})
}

// FuzzCircleCoverComplete: a point the destination formula puts within the
// radius of any centre on the sphere lies in a cell of the circle's cover.
// The point is never drawn from the cover's bounding rectangle, so a
// rectangle that misses part of the circle fails here.
func FuzzCircleCoverComplete(f *testing.F) {
	f.Add(0.0, 179.99, 30.0, 1.5, 0.9)
	f.Add(0.0, -179.99, 30.0, 4.7, 0.9)
	f.Add(80.0, 0.0, 1500.0, 0.0, 0.95)
	f.Add(60.0, 0.0, 1112.0, 1.5, 0.99)
	f.Add(-89.5, 45.0, 200.0, 3.0, 1.0)
	f.Add(43.68, -79.37, 10.0, 2.0, 0.5)
	f.Fuzz(func(t *testing.T, lat, lon, radiusKm, bearing, frac float64) {
		center := Point{Lat: lat, Lon: lon}
		if !center.Valid() || math.IsNaN(radiusKm) || radiusKm <= 0 || radiusKm > 3000 ||
			math.IsNaN(bearing) || math.IsInf(bearing, 0) || math.IsNaN(frac) || frac < 0 || frac > 1 {
			t.Skip()
		}
		p := destination(center, radiusKm*frac, bearing)
		if !p.Valid() || HaversineKm(center, p) > radiusKm {
			t.Skip()
		}
		precision := coverPrecision(radiusKm, 4)
		if !CoverContains(CircleCover(center, radiusKm, precision), p) {
			t.Fatalf("center %v r=%.3f km precision %d: %v at %.3f km not covered",
				center, radiusKm, precision, p, HaversineKm(center, p))
		}
	})
}

// FuzzCircleBracket: for any centre, radius and point the destination
// formula puts up to three radii out, Circle.Bracket holds the float
// haversine Distance evaluates, and its verdict never contradicts Distance
// (see checkBracket).
func FuzzCircleBracket(f *testing.F) {
	f.Add(43.68, -79.37, 50.0, 1.0, 0.5)
	f.Add(89.999, 0.0, 15.0, 3.1, 0.99)
	f.Add(-90.0, 10.0, 0.001, 0.0, 1.0)
	f.Add(0.0, 179.99, 30.0, 1.5, 1.0)
	f.Add(0.0, 0.0, 9000.0, 2.0, 1.0)
	f.Add(60.0, -180.0, 20000.0, 4.0, 2.0)
	f.Fuzz(func(t *testing.T, lat, lon, radiusKm, bearing, frac float64) {
		center := Point{Lat: lat, Lon: lon}
		if !center.Valid() || math.IsNaN(radiusKm) || radiusKm <= 0 || radiusKm > 25000 ||
			math.IsNaN(bearing) || math.IsInf(bearing, 0) || math.IsNaN(frac) || frac < 0 || frac > 3 {
			t.Skip()
		}
		p := destination(center, radiusKm*frac, bearing)
		if !p.Valid() {
			t.Skip()
		}
		c := NewCircle(center, radiusKm, Haversine{})
		checkBracket(t, &c, center, p)
	})
}
