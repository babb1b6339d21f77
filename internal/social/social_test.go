package social

import (
	"testing"
	"time"

	"repro/internal/geo"
)

func post(sid PostID, uid UserID, kind RelationKind, ruid UserID, rsid PostID) *Post {
	return &Post{
		SID: sid, UID: uid, Time: time.Unix(int64(sid), 0),
		Loc:  geo.Point{Lat: 43.7, Lon: -79.4},
		Kind: kind, RUID: ruid, RSID: rsid,
	}
}

func TestPostValidate(t *testing.T) {
	good := []*Post{
		post(1, 10, None, NoUser, NoPost),
		post(2, 11, Reply, 10, 1),
		post(3, 12, Forward, 10, 1),
	}
	for _, p := range good {
		if err := p.Validate(); err != nil {
			t.Errorf("valid post %d rejected: %v", p.SID, err)
		}
	}
	bad := []*Post{
		post(0, 10, None, NoUser, NoPost),                 // zero SID
		post(1, 0, None, NoUser, NoPost),                  // zero UID
		post(1, 10, Reply, 11, NoPost),                    // reply without rsid
		post(1, 10, None, NoUser, 5),                      // rsid without kind
		post(5, 10, Reply, 10, 5),                         // self-reply
		{SID: 1, UID: 1, Loc: geo.Point{Lat: 99, Lon: 0}}, // bad location
	}
	for i, p := range bad {
		if err := p.Validate(); err == nil {
			t.Errorf("bad post case %d accepted", i)
		}
	}
}

func TestIsReaction(t *testing.T) {
	if post(1, 10, None, NoUser, NoPost).IsReaction() {
		t.Error("original post reported as reaction")
	}
	if !post(2, 11, Reply, 10, 1).IsReaction() {
		t.Error("reply not reported as reaction")
	}
	if !post(3, 11, Forward, 10, 1).IsReaction() {
		t.Error("forward not reported as reaction")
	}
}

func TestRelationKindString(t *testing.T) {
	if None.String() != "none" || Reply.String() != "reply" || Forward.String() != "forward" {
		t.Error("RelationKind strings wrong")
	}
	if RelationKind(99).String() == "" {
		t.Error("unknown kind should still format")
	}
}
