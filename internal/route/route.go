// Package route is the channel router of the ground-truth layout
// flow: given a row placement it assigns every net's horizontal
// segments to routing-channel tracks, inserting feed-through columns
// where nets cross intermediate rows.  With track sharing enabled it
// packs segments with the classic left-edge algorithm (what a real
// router such as TimberWolf's global router achieves); with sharing
// disabled it dedicates one track per segment, which is exactly the
// paper's upper-bound assumption 3 — the difference between the two
// is the overestimate the paper attributes to ignored track sharing.
package route

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"time"

	"maest/internal/geom"
	"maest/internal/obs"
	"maest/internal/place"
)

// Router metrics: track and feed-through counts are the quantities
// the estimator predicts (Eqs. 9–12), so the router reports the
// ground-truth side of that comparison.
var (
	mRoutes        = obs.DefCounter("maest_route_total", "completed module routings")
	mRouteSec      = obs.DefHistogram("maest_route_seconds", "per-module routing latency", obs.DefBuckets)
	mRouteSegments = obs.DefCounter("maest_route_segments_total", "routed horizontal segments")
	mRouteTracks   = obs.DefCounter("maest_route_tracks_total", "allocated channel tracks")
	mRouteFeeds    = obs.DefCounter("maest_route_feedthroughs_total", "inserted feed-through columns")
	mChannelTracks = obs.DefHistogram("maest_route_channel_tracks", "track count per routing channel", obs.CountBuckets)
)

// Options configures RouteModule.
type Options struct {
	// TrackSharing packs compatible segments onto shared tracks
	// (left-edge).  When false every segment gets its own track.
	TrackSharing bool
	// AbutAdjacentPairs connects two-pin nets between horizontally
	// adjacent devices in the same row by abutment (diffusion/poly
	// sharing) instead of a channel track.  This is how manual
	// full-custom layouts wire neighbours; standard-cell routing
	// (TimberWolf style) leaves it off.
	AbutAdjacentPairs bool
	// MaxShare caps how many segments may share one track (0 = no
	// cap).  A modern two-metal channel router reaches the density
	// bound (no cap); the single-metal nMOS flows of the paper's era
	// shared tracks only weakly — TimberWolf 3.2-generation layouts
	// are modelled with MaxShare = 2, which reproduces the published
	// estimator-overestimate band.  Ignored unless TrackSharing is
	// set.
	MaxShare int
}

// Result is the routing outcome.
type Result struct {
	// ChannelTracks[c] is the track count of channel c; channel c
	// runs above row c, and channel n (= row count) runs below the
	// last row.
	ChannelTracks []int
	// FeedThroughs[r] counts feed-through columns inserted in row r.
	FeedThroughs []int
	// TotalTracks and TotalFeedThroughs are the sums of the above.
	TotalTracks       int
	TotalFeedThroughs int
	// Segments counts routed horizontal segments (for diagnostics).
	Segments int
}

// ErrRoute wraps routing failures.
var ErrRoute = errors.New("route: routing failed")

// segment is one horizontal wiring interval competing for a track in
// a channel.
type segment struct {
	iv geom.Interval
}

// RouteModule routes every net of the placement's circuit under a
// "route" span carrying the segment/track/feed-through counts plus the
// router metrics.
func RouteModule(ctx context.Context, pl *place.Placement, opts Options) (res *Result, err error) {
	_, sp := obs.Start(ctx, "route")
	sp.SetString("module", pl.Circuit.Name)
	defer func(t0 time.Time) {
		mRouteSec.Observe(time.Since(t0).Seconds())
		if err == nil {
			mRoutes.Inc()
			mRouteSegments.Add(int64(res.Segments))
			mRouteTracks.Add(int64(res.TotalTracks))
			mRouteFeeds.Add(int64(res.TotalFeedThroughs))
			for _, t := range res.ChannelTracks {
				mChannelTracks.Observe(float64(t))
			}
			sp.SetInt("segments", int64(res.Segments))
			sp.SetInt("tracks", int64(res.TotalTracks))
			sp.SetInt("feedthroughs", int64(res.TotalFeedThroughs))
			sp.SetInt("channels", int64(len(res.ChannelTracks)))
		}
		sp.EndErr(err)
	}(time.Now())
	if err := pl.Check(); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrRoute, err)
	}
	nRows := len(pl.Rows)
	res = &Result{
		ChannelTracks: make([]int, nRows+1),
		FeedThroughs:  make([]int, nRows),
	}
	channels := make([][]segment, nRows+1)
	xs := pl.Positions()

	for _, net := range pl.Circuit.Nets {
		if net.Degree() < 2 {
			continue
		}
		// Gather pin locations.
		type pin struct {
			x   geom.Lambda
			row int
		}
		pins := make([]pin, 0, net.Degree())
		rmin, rmax := nRows, -1
		for _, dev := range net.Devices {
			d := dev.Index
			p := pin{x: xs[d], row: pl.RowOf[d]}
			pins = append(pins, p)
			if p.row < rmin {
				rmin = p.row
			}
			if p.row > rmax {
				rmax = p.row
			}
		}
		// Spine column: median pin x, the trunk the net crosses rows
		// on.
		spine := medianX(pins, func(p pin) geom.Lambda { return p.x })

		if rmin == rmax {
			if opts.AbutAdjacentPairs && len(pins) == 2 {
				a, b := net.Devices[0].Index, net.Devices[1].Index
				ds := pl.Slot[a] - pl.Slot[b]
				if ds == 1 || ds == -1 {
					continue // neighbours share diffusion, no track
				}
			}
			// Single-row net: one segment in the channel above the
			// row ("even when all Standard-Cells attached to a net
			// are placed in one row, they are usually wired through
			// a routing channel").
			px := make([]geom.Lambda, len(pins))
			for i, p := range pins {
				px[i] = p.x
			}
			channels[rmin] = append(channels[rmin], segment{xsInterval(px)})
			res.Segments++
			continue
		}
		// Feed-throughs in intermediate rows without a pin.
		hasPin := map[int]bool{}
		for _, p := range pins {
			hasPin[p.row] = true
		}
		for r := rmin + 1; r < rmax; r++ {
			if !hasPin[r] {
				res.FeedThroughs[r]++
			}
		}
		// Channel segments: channel c (between rows c-1 and c) for
		// c in rmin+1..rmax carries the spine plus the pins that
		// connect into it: row rmin pins connect downward into
		// channel rmin+1, row rmax pins upward into channel rmax,
		// intermediate-row pins upward into their own channel.
		points := make(map[int][]geom.Lambda)
		for c := rmin + 1; c <= rmax; c++ {
			points[c] = append(points[c], spine)
		}
		for _, p := range pins {
			switch {
			case p.row == rmin:
				points[rmin+1] = append(points[rmin+1], p.x)
			default:
				points[p.row] = append(points[p.row], p.x)
			}
		}
		for c := rmin + 1; c <= rmax; c++ {
			iv := xsInterval(points[c])
			channels[c] = append(channels[c], segment{iv})
			res.Segments++
		}
	}

	for c, segs := range channels {
		if opts.TrackSharing {
			res.ChannelTracks[c] = leftEdge(segs, opts.MaxShare)
		} else {
			res.ChannelTracks[c] = len(segs)
		}
		res.TotalTracks += res.ChannelTracks[c]
	}
	for _, f := range res.FeedThroughs {
		res.TotalFeedThroughs += f
	}
	return res, nil
}

// xsInterval returns the horizontal extent of a point set, at least
// 1λ wide.
func xsInterval(points []geom.Lambda) geom.Interval {
	lo, hi := points[0], points[0]
	for _, x := range points[1:] {
		if x < lo {
			lo = x
		}
		if x > hi {
			hi = x
		}
	}
	if hi == lo {
		hi = lo + 1 // a degenerate segment still occupies a column
	}
	return geom.Interval{Lo: lo, Hi: hi}
}

func medianX[T any](items []T, get func(T) geom.Lambda) geom.Lambda {
	vals := make([]geom.Lambda, len(items))
	for i, it := range items {
		vals[i] = get(it)
	}
	sort.Slice(vals, func(i, j int) bool { return vals[i] < vals[j] })
	return vals[len(vals)/2]
}

// leftEdge packs segments onto the minimum number of tracks ignoring
// vertical constraints: sort by left edge and greedily reuse the
// first track whose last segment ends at or before the new segment's
// start.  With maxShare = 0 the result equals the channel's maximum
// local density; a positive maxShare additionally caps the number of
// segments per track (the era-router model — see Options.MaxShare).
func leftEdge(segs []segment, maxShare int) int {
	if len(segs) == 0 {
		return 0
	}
	sorted := make([]segment, len(segs))
	copy(sorted, segs)
	sort.Slice(sorted, func(i, j int) bool {
		if sorted[i].iv.Lo != sorted[j].iv.Lo {
			return sorted[i].iv.Lo < sorted[j].iv.Lo
		}
		return sorted[i].iv.Hi < sorted[j].iv.Hi
	})
	type track struct {
		end   geom.Lambda
		count int
	}
	var tracks []track
	for _, s := range sorted {
		placed := false
		for t := range tracks {
			if tracks[t].end <= s.iv.Lo && (maxShare <= 0 || tracks[t].count < maxShare) {
				tracks[t].end = s.iv.Hi
				tracks[t].count++
				placed = true
				break
			}
		}
		if !placed {
			tracks = append(tracks, track{end: s.iv.Hi, count: 1})
		}
	}
	return len(tracks)
}

// Density returns the maximum number of simultaneously overlapping
// segments among ivs — the lower bound any channel router must meet.
// Exposed for the router's own invariant tests.
func Density(ivs []geom.Interval) int {
	type event struct {
		x     geom.Lambda
		delta int
	}
	evs := make([]event, 0, 2*len(ivs))
	for _, iv := range ivs {
		if iv.Empty() {
			continue
		}
		evs = append(evs, event{iv.Lo, +1}, event{iv.Hi, -1})
	}
	sort.Slice(evs, func(i, j int) bool {
		if evs[i].x != evs[j].x {
			return evs[i].x < evs[j].x
		}
		return evs[i].delta < evs[j].delta // close before open at same x
	})
	cur, best := 0, 0
	for _, e := range evs {
		cur += e.delta
		if cur > best {
			best = cur
		}
	}
	return best
}
