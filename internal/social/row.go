package social

import (
	"errors"

	"repro/internal/geo"
)

// Row is one tuple of the metadata relation of Section IV-A, schema (sid,
// uid, lat, lon, ruid, rsid): a post without its words and text.
type Row struct {
	SID  PostID
	UID  UserID
	Lat  float64
	Lon  float64
	RUID UserID
	RSID PostID
}

// Loc returns the row's location as a geo.Point.
func (r Row) Loc() geo.Point { return geo.Point{Lat: r.Lat, Lon: r.Lon} }

// RowMeta is the slice of a row the spatial candidate filter needs, packed
// in 32 bytes with a Row's own float64 coordinates, so a radius test and
// δ(p,q) computed from it equal the row's. A segment or memtable holds one
// per row, indexed by the row ordinals its postings name (core.RowSource).
type RowMeta struct {
	SID PostID
	Lat float64
	Lon float64
	UID UserID
}

// ErrRejected marks a post refused for what it is — it fails validation,
// repeats a SID, or arrives out of timestamp order: the caller's data is
// at fault, not the store (the HTTP server answers 400).
var ErrRejected = errors.New("append rejected")
