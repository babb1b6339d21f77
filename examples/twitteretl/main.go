// Twitteretl demonstrates the full Figure 3 pipeline from raw Twitter REST
// API v1.1 JSON (the paper's crawl format) to a served TkLUS query: parse
// statuses, resolve reply/retweet references, build the system, query, and
// drill into the winning user's thread.
package main

import (
	"context"
	"fmt"
	"log"
	"sort"
	"strings"

	tklus "repro"
	"repro/internal/twitterjson"
)

// rawStatuses is a miniature crawl: a hotel conversation in Toronto, an
// unrelated tweet, one status without a geo-tag (dropped by ETL, as the
// paper's system indexes geo-tagged tweets only), and a reply to a tweet
// outside the crawl (kept, but downgraded to an original).
const rawStatuses = `{"id":5001,"text":"The rooftop bar at this hotel is unreal #toronto","created_at":"Fri Nov 02 19:00:00 +0000 2012","user":{"id":42},"coordinates":{"type":"Point","coordinates":[-79.3871,43.6702]}}
{"id":5002,"text":"@traveler which hotel??","created_at":"Fri Nov 02 19:05:00 +0000 2012","user":{"id":43},"coordinates":{"type":"Point","coordinates":[-79.3902,43.6689]},"in_reply_to_status_id":5001,"in_reply_to_user_id":42}
{"id":5003,"text":"RT: The rooftop bar at this hotel is unreal","created_at":"Fri Nov 02 19:10:00 +0000 2012","user":{"id":44},"coordinates":{"type":"Point","coordinates":[-79.3855,43.6710]},"retweeted_status":{"id":5001,"user":{"id":42}}}
{"id":5004,"text":"@traveler going tonight!","created_at":"Fri Nov 02 19:15:00 +0000 2012","user":{"id":45},"coordinates":{"type":"Point","coordinates":[-79.3860,43.6695]},"in_reply_to_status_id":5001,"in_reply_to_user_id":42}
{"id":5005,"text":"Raptors game was intense","created_at":"Fri Nov 02 20:00:00 +0000 2012","user":{"id":46},"coordinates":{"type":"Point","coordinates":[-79.3791,43.6435]}}
{"id":5006,"text":"hotel wifi rant, no location services for me","created_at":"Fri Nov 02 20:30:00 +0000 2012","user":{"id":47}}
{"id":5007,"text":"@somebody replying to a tweet outside this crawl about a hotel","created_at":"Fri Nov 02 21:00:00 +0000 2012","user":{"id":48},"coordinates":{"type":"Point","coordinates":[-79.3900,43.6700]},"in_reply_to_status_id":99999,"in_reply_to_user_id":999}
`

func main() {
	// --- ETL ------------------------------------------------------------
	posts, twitterIDs, stats, err := twitterjson.Read(strings.NewReader(rawStatuses))
	if err != nil {
		log.Fatal(err)
	}
	resolved, dropped := twitterjson.ResolveReferences(posts, twitterIDs)
	sort.Slice(posts, func(i, j int) bool { return posts[i].SID < posts[j].SID })
	fmt.Printf("ETL: %d statuses read, %d loaded, %d without geo-tag skipped; "+
		"%d references resolved, %d dangling\n\n",
		stats.Read, stats.Loaded, stats.NoGeoTag, resolved, dropped)

	// --- Build & query ----------------------------------------------------
	sys, err := tklus.Build(posts, tklus.DefaultConfig())
	if err != nil {
		log.Fatal(err)
	}
	q := tklus.Query{
		Loc:      tklus.Point{Lat: 43.6702, Lon: -79.3871},
		RadiusKm: 5,
		Keywords: []string{"hotel"},
		K:        3,
		Ranking:  tklus.MaxScore,
	}
	results, _, err := sys.Search(context.Background(), q)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("top local users for \"hotel\":")
	for i, r := range results {
		fmt.Printf("  %d. user %d (score %.4f)\n", i+1, r.UID, r.Score)
	}

	// --- Drill into the winner's conversation ---------------------------
	evidence, err := sys.Engine.Evidence(q, results[0].UID, 1)
	if err != nil || len(evidence) == 0 {
		log.Fatal("no evidence for the top user")
	}
	nodes, popularity := sys.Thread(evidence[0])
	fmt.Printf("\ntheir top tweet leads a thread of %d tweets (popularity %.2f):\n",
		len(nodes), popularity)
	for _, n := range nodes {
		text, _ := sys.Store.Text(n.SID)
		fmt.Printf("  %s user %d: %s\n", strings.Repeat("  ", n.Level-1), n.UID, text)
	}
}
