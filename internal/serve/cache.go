package serve

// Per-name result cache: a vlru.Cache keyed by name at the Database.Version
// a result was computed against, bounded by resultBytes. A name with no
// references is cached in the same way, as a NameResult with NumRefs == 0
// (a negative entry), so the newer fact about a name — found or not found —
// replaces the older one by construction. Only clean results are cached;
// degraded or incident-bearing responses are transient by nature and
// recomputing them is the point.
//
// Publication race: a result is computed under a flight keyed at version V.
// If the database moves again while that flight runs (a second bump during
// a revalidation — three versions in play), the computation may have read
// mixed contents and is a consistent snapshot of NO version. The store gate
// therefore lives with the computation, not the cache: compute re-reads the
// backend version after the engine call and publishes only when it still
// equals the flight's version (see Server.compute). vlru's version guard is
// the cache-side half — an entry can only ever be replaced by a strictly
// newer version, so a late store from a superseded flight can never clobber
// a fresher entry.

// DefaultCacheBytes is the result-cache budget Options.CacheBytes = 0
// selects. Rendered groups are small (tens of bytes per reference), so this
// comfortably holds every name of a DBLP-scale corpus.
const DefaultCacheBytes = 16 << 20

// resultBytes estimates a result's resident size: string bytes plus slice
// and header overhead. An estimate is enough — the budget bounds growth,
// it does not account memory to the byte. A negative entry costs about a
// hundred bytes.
func resultBytes(name string, res *NameResult) int64 {
	n := int64(len(name)) + 96 // entry struct, map slot, list element
	for _, g := range res.Groups {
		n += 24 // slice header
		for _, k := range g {
			n += int64(len(k)) + 16
		}
	}
	return n
}
