package kbtim

import (
	"context"
	"errors"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"

	"kbtim/internal/remote"
)

// remoteGroups serves each shard engine of s over the artifact protocol and
// returns one single-replica group per shard.
func remoteGroups(t *testing.T, s *Sharded) []*remote.Group {
	t.Helper()
	groups := make([]*remote.Group, s.NumShards())
	for i := range groups {
		srv := httptest.NewServer(remote.NewBatchHandler(s.Shard(i)))
		t.Cleanup(srv.Close)
		groups[i] = remote.NewGroup([]*remote.Client{remote.NewClient(srv.URL, nil)}, nil)
	}
	return groups
}

// TestOpenRemoteShardedMatchesSharded: a Sharded over remote-opened shards
// answers every query shape exactly as the in-process Sharded whose engines
// serve its artifacts, its shards keep their decoded caches, and its
// index-only engines refuse every dataset method with one error.
func TestOpenRemoteShardedMatchesSharded(t *testing.T) {
	ds := shardedDataset(t)
	local, _ := buildSharded(t, ds, 2, ShardHash, 0)
	rs, err := OpenRemoteSharded(context.Background(), remoteGroups(t, local), ShardHash, shardedOptions())
	if err != nil {
		t.Fatal(err)
	}
	defer rs.Close()
	for _, st := range []Strategy{StrategyRR, StrategyIRR} {
		for _, q := range shardedQueries() {
			want, err := local.Query(context.Background(), st, q, StreamOptions{})
			if err != nil {
				t.Fatal(err)
			}
			got, err := rs.Query(context.Background(), st, q, StreamOptions{})
			if err != nil {
				t.Fatalf("remote %s %v: %v", st, q.Topics, err)
			}
			if !reflect.DeepEqual(got.Seeds, want.Seeds) || !reflect.DeepEqual(got.Marginals, want.Marginals) ||
				got.EstSpread != want.EstSpread || got.NumRRSets != want.NumRRSets {
				t.Fatalf("remote %s %v: (%v, %v, %v) != local (%v, %v, %v)", st, q.Topics,
					got.Seeds, got.Marginals, got.EstSpread, want.Seeds, want.Marginals, want.EstSpread)
			}
		}
	}
	if !reflect.DeepEqual(rs.IndexedKeywords(), local.IndexedKeywords()) {
		t.Fatalf("remote keywords %v != local %v", rs.IndexedKeywords(), local.IndexedKeywords())
	}
	if rr, irr := rs.DecodedCacheStats(); rr.Hits+rr.Misses == 0 || irr.Hits+irr.Misses == 0 {
		t.Fatalf("remote shards looked nothing up in a decoded cache: rr %+v, irr %+v", rr, irr)
	}

	e := rs.Shard(0)
	q := Query{Topics: []int{0}, K: 1}
	_, errBuild := e.BuildRRIndex(t.TempDir() + "/x.rr")
	_, errShards := e.BuildShardIndexes("irr", 2, ShardHash, func(int) string { return t.TempDir() + "/x" })
	_, errTopics := e.ShardTopics(2, ShardHash)
	_, errWRIS := e.QueryWRIS(q)
	_, errRIS := e.QueryRIS(1)
	_, errSpread := e.EvaluateSpread([]Seed{0}, q, 10)
	_, errReach := e.EvaluateReach([]Seed{0}, 10)
	_, errNew := NewSharded([]*Engine{e}, ShardHash, 0)
	for name, err := range map[string]error{
		"BuildRRIndex": errBuild, "BuildShardIndexes": errShards, "ShardTopics": errTopics,
		"QueryWRIS": errWRIS, "QueryRIS": errRIS, "EvaluateSpread": errSpread, "EvaluateReach": errReach,
		"OpenIRRIndex": e.OpenIRRIndex("x.irr"), "NewSharded": errNew,
	} {
		if !errors.Is(err, errNoDataset) {
			t.Errorf("index-only %s: got %v, want errNoDataset", name, err)
		}
	}
	if got := e.IndexableTopics(); got != nil {
		t.Errorf("index-only IndexableTopics = %v, want nil", got)
	}
}

// TestOpenRemoteShardedRefusesDisagreeingKinds: a shard serving a different
// index-kind set than shard 0 is refused, and the error names it.
func TestOpenRemoteShardedRefusesDisagreeingKinds(t *testing.T) {
	ds := shardedDataset(t)
	local, _ := buildSharded(t, ds, 2, ShardHash, 0)
	groups := remoteGroups(t, local)
	irrOnly := httptest.NewServer(remote.NewBatchHandler(remote.IndexSource{IRR: local.Shard(1).irrH.irr}))
	t.Cleanup(irrOnly.Close)
	groups[1] = remote.NewGroup([]*remote.Client{remote.NewClient(irrOnly.URL, nil)}, nil)
	if _, err := OpenRemoteSharded(context.Background(), groups, ShardHash, shardedOptions()); err == nil ||
		!strings.Contains(err.Error(), "shard 1 serves no RR index") {
		t.Fatalf("got %v, want shard 1 refused for serving no RR index", err)
	}
}
