// Package policy implements the replacement and cache-partitioning
// policies used as the baseline and the competition for NUcache:
//
//   - LRU, Random, NRU — classic replacement.
//   - SRRIP, DRRIP — re-reference interval prediction (Jaleel et al.,
//     ISCA 2010); DRRIP set-duels SRRIP against bimodal insertion.
//   - DIP and TADIP-F — (thread-aware) dynamic insertion policy
//     (Qureshi et al. ISCA 2007; Jaleel et al. PACT 2008).
//   - UCP — utility-based cache partitioning with UMON-DSS monitors and
//     lookahead partitioning (Qureshi & Patt, MICRO 2006).
//   - PIPP — promotion/insertion pseudo-partitioning
//     (Xie & Loh, ISCA 2009).
//   - OPT — Belady's offline optimal replacement, as an upper bound.
//
// All policies implement cache.Policy; the partitioning policies
// additionally implement cache.AccessObserver to feed their monitors.
// NUcache itself lives in internal/core.
package policy
