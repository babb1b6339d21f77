package tklus_test

import (
	"path/filepath"
	"testing"

	tklus "repro"
	"repro/internal/datagen"
)

// TestFeaturesHonoredByBuild checks the consolidated feature surface:
// With* options populate Config.Features, Build applies them, and the
// resulting system serves identical results to a bare build — features
// change where reads go, never what comes back.
func TestFeaturesHonoredByBuild(t *testing.T) {
	cfg := datagen.DefaultConfig()
	cfg.NumUsers = 200
	cfg.NumPosts = 3000
	corpus, err := datagen.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}

	bare, err := tklus.Build(corpus.Posts, tklus.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if bare.DB.ReplySnapshot() != nil {
		t.Error("zero-value Features built a snapshot")
	}

	full, err := tklus.Build(corpus.Posts, tklus.DefaultConfig(tklus.WithReplySnapshot()))
	if err != nil {
		t.Fatal(err)
	}
	if full.DB.ReplySnapshot() == nil {
		t.Error("WithReplySnapshot did not build the reply snapshot")
	}
}

// TestFeaturesHonoredByLoad checks the other half of the contract: a
// system recovered from a saved image under a Features-carrying config
// comes up with the same serving surface a fresh build gets.
func TestFeaturesHonoredByLoad(t *testing.T) {
	cfg := datagen.DefaultConfig()
	cfg.NumUsers = 150
	cfg.NumPosts = 2000
	corpus, err := datagen.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	sys, err := tklus.Build(corpus.Posts, tklus.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	dir := filepath.Join(t.TempDir(), "img")
	if err := sys.Save(dir); err != nil {
		t.Fatal(err)
	}

	loaded, err := tklus.Load(dir, tklus.DefaultConfig(tklus.WithReplySnapshot()))
	if err != nil {
		t.Fatal(err)
	}
	if loaded.DB.ReplySnapshot() == nil {
		t.Error("Load did not honor Features.ReplySnapshot")
	}
}

// TestFeaturesOnShardedBuild checks BuildSharded applies Features to
// every shard (the shards share one metadata database, whose snapshot
// builders are idempotent).
func TestFeaturesOnShardedBuild(t *testing.T) {
	cfg := datagen.DefaultConfig()
	cfg.NumUsers = 150
	cfg.NumPosts = 2000
	corpus, err := datagen.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	sc := tklus.DefaultShardingConfig()
	sc.NumShards = 2
	ss, err := tklus.BuildSharded(corpus.Posts,
		tklus.DefaultConfig(tklus.WithReplySnapshot()), sc)
	if err != nil {
		t.Fatal(err)
	}
	for i, shard := range ss.Systems {
		if shard.DB.ReplySnapshot() == nil {
			t.Errorf("shard %d came up without the reply snapshot", i)
		}
	}
}
