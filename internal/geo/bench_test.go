package geo

import "testing"

var (
	benchPoint = Point{Lat: 43.6839128037, Lon: -79.37356590}
	sinkString string
	sinkFloat  float64
	sinkCover  []string
)

func BenchmarkEncode(b *testing.B) {
	for _, precision := range []int{4, 8, 12} {
		b.Run(string(rune('0'+precision/10))+string(rune('0'+precision%10)), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				sinkString = Encode(benchPoint, precision)
			}
		})
	}
}

func BenchmarkDecodeCell(b *testing.B) {
	for i := 0; i < b.N; i++ {
		_, _ = DecodeCell("6gxp")
	}
}

// BenchmarkHaversine times the radius check per resolved posting: the full
// haversine the filter used to pay for every one, and Circle.Distance on a
// survivor (same arithmetic, centre cosine hoisted), on a point the haversine
// cut-off rejects (no asin, no sqrt) and on one the latitude cut-off rejects
// (no trigonometry at all); then Circle.Bracket, which the filter runs first,
// on the survivor (surely inside, polynomials only) and on the rejected
// point.
func BenchmarkHaversine(b *testing.B) {
	b.Run("full", func(b *testing.B) {
		other := Point{Lat: 40.7128, Lon: -74.0060}
		for i := 0; i < b.N; i++ {
			sinkFloat = HaversineKm(benchPoint, other)
		}
	})
	circle := NewCircle(benchPoint, 15, Haversine{})
	for _, leg := range []struct {
		name string
		p    Point
	}{
		{"circle-inside", Point{Lat: benchPoint.Lat + 0.05, Lon: benchPoint.Lon + 0.05}},
		{"circle-reject", Point{Lat: benchPoint.Lat + 0.05, Lon: benchPoint.Lon + 0.25}},
		{"circle-reject-lat", Point{Lat: benchPoint.Lat + 0.2, Lon: benchPoint.Lon}},
	} {
		b.Run(leg.name, func(b *testing.B) {
			if _, inside := circle.Distance(leg.p); inside != (leg.name == "circle-inside") {
				b.Fatalf("%v: inside = %v", leg.p, inside)
			}
			for i := 0; i < b.N; i++ {
				sinkFloat, _ = circle.Distance(leg.p)
			}
		})
	}
	for _, leg := range []struct {
		name string
		p    Point
		want Verdict
	}{
		{"bracket-inside", Point{Lat: benchPoint.Lat + 0.05, Lon: benchPoint.Lon + 0.05}, Inside},
		{"bracket-reject", Point{Lat: benchPoint.Lat + 0.05, Lon: benchPoint.Lon + 0.25}, Outside},
	} {
		b.Run(leg.name, func(b *testing.B) {
			if _, _, v := circle.Bracket(leg.p); v != leg.want {
				b.Fatalf("%v: verdict %d, want %d", leg.p, v, leg.want)
			}
			for i := 0; i < b.N; i++ {
				sinkFloat, _, _ = circle.Bracket(leg.p)
			}
		})
	}
}

func BenchmarkCircleCover(b *testing.B) {
	for _, radius := range []float64{5, 20, 100} {
		name := map[float64]string{5: "r5", 20: "r20", 100: "r100"}[radius]
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				sinkCover = CircleCover(benchPoint, radius, 4)
			}
		})
	}
}
