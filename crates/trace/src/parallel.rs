//! Multithreaded shared-memory workload models (§6.3 sensitivity study).
//!
//! The paper runs SPLASH2 and PARSEC benchmarks with 4 threads on a reduced
//! 512 kB LLC. We model eight of them as per-thread mixtures over a *shared*
//! address space: a shared data region touched by every thread (read-mostly
//! or read-write), per-thread private regions, and for some workloads a
//! partitioned streaming sweep. Shared regions exercise MESI replication,
//! invalidation and genuine last-copy detection — the parts of the
//! coherence/spill machinery that multiprogrammed runs cannot reach.

use crate::access::AccessStream;
use crate::gen::{ChaseStream, CyclicStream, Mixture, ZipfStream};
use crate::spec::{CoreWorkload, CpuModel, LINE_BYTES};

const KB: u64 = 1 << 10;
const MB: u64 = 1 << 20;

/// Base of the shared heap; every thread addresses the same region.
const SHARED_BASE: u64 = 0x1000_0000;
/// Base of the per-thread private regions.
const PRIVATE_BASE: u64 = 0x10_0000_0000;
/// Base of the extra shared pool the tunable sharing degree redirects
/// into; placed well above every model's shared heap so redirected traffic
/// never aliases a benchmark's own regions.
const SHARING_POOL_BASE: u64 = 0x4000_0000;
/// Lines in the sharing pool: 2 MB, several times any private LLC share in
/// the §6.3 configuration, so redirected accesses carry a capacity/
/// compulsory miss component that grows with the redirected fraction.
const SHARING_POOL_LINES: u64 = (2 * MB) / LINE_BYTES;

/// `(offset, bytes)` of thread `tid`'s slice of a `total`-byte partitioned
/// sweep. Boundaries are rounded *down* to `LINE_BYTES` so adjacent
/// threads never share a boundary line (no accidental false sharing in the
/// "partitioned streaming" model), and the last thread absorbs the
/// division remainder so the slices cover `[0, total)` exactly — for
/// non-power-of-two thread counts the plain `total / threads` used to
/// leave a tail of the array never swept by anyone.
///
/// # Panics
///
/// Panics if `threads == 0`, `tid >= threads`, or the per-thread slice
/// would round down to zero lines.
fn partition(total: u64, tid: usize, threads: usize) -> (u64, u64) {
    assert!(threads > 0 && tid < threads, "bad thread index");
    let part = (total / threads as u64) & !(LINE_BYTES - 1);
    assert!(part > 0, "partition smaller than a cache line");
    let offset = tid as u64 * part;
    let bytes = if tid + 1 == threads {
        total - offset
    } else {
        part
    };
    (offset, bytes)
}

/// Tunable sharing degree for the [`ParallelBench`] models: `degree` of
/// each thread's accesses are redirected into a common 2 MB Zipf-skewed
/// pool every thread addresses identically, and `write_fraction` of those
/// redirected accesses are stores. Read-mostly sharing (small
/// `write_fraction`) exercises replication; read-write sharing drives
/// invalidations and coherence misses on top of the pool's capacity
/// misses. With `degree == 0.0` the base model's access *addresses* are
/// unchanged (the selection draw still advances the thread RNG, so use
/// [`ParallelBench::thread_workload`] when no sharing knob is wanted).
#[derive(Clone, Copy, PartialEq, Debug)]
pub struct SharingSpec {
    /// Fraction of each thread's accesses redirected into the shared pool
    /// (`0.0..=1.0`).
    pub degree: f64,
    /// Fraction of redirected accesses that are stores (`0.0..=1.0`).
    pub write_fraction: f64,
}

impl SharingSpec {
    /// Read-mostly sharing at `degree` (5% of redirected accesses store).
    pub fn read_mostly(degree: f64) -> Self {
        SharingSpec {
            degree,
            write_fraction: 0.05,
        }
    }

    /// Read-write sharing at `degree` (35% of redirected accesses store).
    pub fn read_write(degree: f64) -> Self {
        SharingSpec {
            degree,
            write_fraction: 0.35,
        }
    }
}

/// The multithreaded benchmarks modelled for the §6.3 study.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum ParallelBench {
    /// SPLASH2 barnes: skewed shared octree + private bodies.
    Barnes,
    /// SPLASH2 fft: partitioned streaming over a shared array.
    Fft,
    /// SPLASH2 lu: blocked shared matrix, medium reuse.
    Lu,
    /// SPLASH2 ocean: large streaming grids, little reuse.
    Ocean,
    /// SPLASH2 radix: streaming keys + scattered histogram stores.
    Radix,
    /// PARSEC blackscholes: mostly private option data.
    Blackscholes,
    /// PARSEC canneal: pointer chasing over a large shared netlist.
    Canneal,
    /// PARSEC streamcluster: repeated sweeps over a shared block of points.
    Streamcluster,
}

impl ParallelBench {
    /// All modelled benchmarks.
    pub const ALL: [ParallelBench; 8] = [
        ParallelBench::Barnes,
        ParallelBench::Fft,
        ParallelBench::Lu,
        ParallelBench::Ocean,
        ParallelBench::Radix,
        ParallelBench::Blackscholes,
        ParallelBench::Canneal,
        ParallelBench::Streamcluster,
    ];

    /// Benchmark name as used in result tables.
    pub fn name(self) -> &'static str {
        match self {
            ParallelBench::Barnes => "barnes",
            ParallelBench::Fft => "fft",
            ParallelBench::Lu => "lu",
            ParallelBench::Ocean => "ocean",
            ParallelBench::Radix => "radix",
            ParallelBench::Blackscholes => "blackscholes",
            ParallelBench::Canneal => "canneal",
            ParallelBench::Streamcluster => "streamcluster",
        }
    }

    /// Builds the workload of thread `tid` out of `threads`.
    ///
    /// # Panics
    ///
    /// Panics if `tid >= threads` or `threads == 0`.
    pub fn thread_workload(self, tid: usize, threads: usize, seed: u64) -> CoreWorkload {
        assert!(threads > 0 && tid < threads, "bad thread index");
        let tseed = seed ^ ((tid as u64 + 1) << 20);
        let private = PRIVATE_BASE + (tid as u64) * (1 << 32);
        let sid = |i: u16| i; // stream ids are per-thread
        let mk = |comps: Vec<(f64, Box<dyn AccessStream>)>,
                  cpu: CpuModel,
                  label: &str|
         -> CoreWorkload {
            CoreWorkload {
                label: format!("{label}.t{tid}"),
                cpu,
                stream: Box::new(Mixture::new(comps, cpu.store_fraction, tseed ^ 0xBEEF)),
            }
        };
        let cpu = |f: f64, b: f64, o: f64, st: f64| CpuModel {
            mem_fraction: f,
            base_cpi: b,
            overlap: o,
            store_fraction: st,
        };
        match self {
            ParallelBench::Barnes => mk(
                vec![
                    (
                        0.55,
                        Box::new(ZipfStream::new(
                            SHARED_BASE,
                            32768, // 1 MB shared octree
                            LINE_BYTES,
                            0.90,
                            tseed ^ 1,
                            sid(0),
                        )),
                    ),
                    (
                        0.45,
                        Box::new(CyclicStream::words(private, 48 * KB, sid(1))),
                    ),
                ],
                cpu(0.28, 1.0, 0.5, 0.15),
                "barnes",
            ),
            ParallelBench::Fft => {
                // Each thread sweeps its own partition of the shared array,
                // with occasional reads into other partitions (transpose).
                let (off, bytes) = partition(2 * MB, tid, threads);
                mk(
                    vec![
                        (
                            0.62,
                            Box::new(CyclicStream::words(SHARED_BASE + off, bytes, sid(0))),
                        ),
                        (
                            0.13,
                            Box::new(ChaseStream::new(
                                SHARED_BASE,
                                (2 * MB) / LINE_BYTES,
                                LINE_BYTES,
                                tseed ^ 2,
                                sid(1),
                            )),
                        ),
                        (
                            0.25,
                            Box::new(CyclicStream::words(private, 24 * KB, sid(2))),
                        ),
                    ],
                    cpu(0.30, 0.9, 0.35, 0.30),
                    "fft",
                )
            }
            ParallelBench::Lu => mk(
                vec![
                    (
                        0.50,
                        Box::new(ZipfStream::new(
                            SHARED_BASE,
                            16384, // 512 kB shared matrix blocks
                            LINE_BYTES,
                            0.70,
                            tseed ^ 3,
                            sid(0),
                        )),
                    ),
                    (
                        0.50,
                        Box::new(CyclicStream::words(private, 64 * KB, sid(1))),
                    ),
                ],
                cpu(0.30, 0.8, 0.5, 0.25),
                "lu",
            ),
            ParallelBench::Ocean => {
                let (off, bytes) = partition(8 * MB, tid, threads);
                mk(
                    vec![
                        (
                            0.70,
                            Box::new(CyclicStream::words(SHARED_BASE + off, bytes, sid(0))),
                        ),
                        (
                            0.30,
                            Box::new(CyclicStream::words(private, 16 * KB, sid(1))),
                        ),
                    ],
                    cpu(0.33, 0.85, 0.2, 0.35),
                    "ocean",
                )
            }
            ParallelBench::Radix => {
                let (off, bytes) = partition(4 * MB, tid, threads);
                mk(
                    vec![
                        (
                            0.45,
                            Box::new(CyclicStream::words(SHARED_BASE + off, bytes, sid(0))),
                        ),
                        (
                            0.20,
                            Box::new(ChaseStream::new(
                                SHARED_BASE + 32 * MB,
                                MB / LINE_BYTES,
                                LINE_BYTES,
                                tseed ^ 4,
                                sid(1),
                            )),
                        ),
                        (
                            0.35,
                            Box::new(CyclicStream::words(private, 16 * KB, sid(2))),
                        ),
                    ],
                    cpu(0.30, 0.9, 0.3, 0.40),
                    "radix",
                )
            }
            ParallelBench::Blackscholes => mk(
                vec![
                    (
                        0.85,
                        Box::new(CyclicStream::words(private, 96 * KB, sid(0))),
                    ),
                    (
                        0.15,
                        Box::new(ZipfStream::new(
                            SHARED_BASE,
                            8192, // 256 kB shared parameters
                            LINE_BYTES,
                            1.10,
                            tseed ^ 5,
                            sid(1),
                        )),
                    ),
                ],
                cpu(0.25, 0.7, 0.55, 0.15),
                "blackscholes",
            ),
            ParallelBench::Canneal => mk(
                vec![
                    (
                        0.40,
                        Box::new(ChaseStream::new(
                            SHARED_BASE,
                            (16 * MB) / LINE_BYTES,
                            LINE_BYTES,
                            tseed ^ 6,
                            sid(0),
                        )),
                    ),
                    (
                        0.60,
                        Box::new(CyclicStream::words(private, 32 * KB, sid(1))),
                    ),
                ],
                cpu(0.30, 0.9, 0.55, 0.20),
                "canneal",
            ),
            ParallelBench::Streamcluster => mk(
                vec![
                    (
                        0.65,
                        Box::new(CyclicStream::words(SHARED_BASE, 1536 * KB, sid(0))),
                    ),
                    (
                        0.35,
                        Box::new(CyclicStream::words(private, 16 * KB, sid(1))),
                    ),
                ],
                cpu(0.32, 0.8, 0.3, 0.10),
                "streamcluster",
            ),
        }
    }

    /// Builds all `threads` workloads of this benchmark.
    pub fn workloads(self, threads: usize, seed: u64) -> Vec<CoreWorkload> {
        (0..threads)
            .map(|t| self.thread_workload(t, threads, seed))
            .collect()
    }

    /// [`thread_workload`](ParallelBench::thread_workload) with a tunable
    /// sharing degree: `spec.degree` of the thread's accesses are
    /// redirected into the common [`SharingSpec`] pool (same lines for
    /// every thread), `spec.write_fraction` of which are stores. The base
    /// model is wrapped unchanged, so the redirected fraction — not the
    /// model itself — is the swept parameter.
    ///
    /// # Panics
    ///
    /// Panics if `tid >= threads`, `threads == 0`, or either `spec` field
    /// is outside `[0, 1]`.
    pub fn thread_workload_sharing(
        self,
        tid: usize,
        threads: usize,
        seed: u64,
        spec: SharingSpec,
    ) -> CoreWorkload {
        assert!(
            (0.0..=1.0).contains(&spec.degree),
            "sharing degree must be in [0, 1]"
        );
        assert!(
            (0.0..=1.0).contains(&spec.write_fraction),
            "write fraction must be in [0, 1]"
        );
        let base = self.thread_workload(tid, threads, seed);
        let tseed = seed ^ ((tid as u64 + 1) << 20);
        // Every thread draws from the same pool with the same rank
        // scramble, so popular lines coincide across threads; only the
        // per-thread sample sequence differs.
        let pool = ZipfStream::new(
            SHARING_POOL_BASE,
            SHARING_POOL_LINES,
            LINE_BYTES,
            0.60,
            tseed ^ 0x51,
            8, // stream id outside the base models' per-thread ids
        );
        // Inner mixture owns the redirected accesses' store fraction; the
        // outer one only selects and never rewrites kinds (fraction 0), so
        // base-stream stores pass through untouched.
        let shared = Mixture::new(
            vec![(1.0, Box::new(pool) as Box<dyn AccessStream>)],
            spec.write_fraction,
            tseed ^ 0x52,
        );
        CoreWorkload {
            label: format!("{}.d{:.2}", base.label, spec.degree),
            cpu: base.cpu,
            stream: Box::new(Mixture::new(
                vec![
                    (1.0 - spec.degree, base.stream),
                    (spec.degree, Box::new(shared)),
                ],
                0.0,
                tseed ^ 0x53,
            )),
        }
    }

    /// Builds all `threads` sharing-degree workloads of this benchmark.
    pub fn workloads_sharing(
        self,
        threads: usize,
        seed: u64,
        spec: SharingSpec,
    ) -> Vec<CoreWorkload> {
        (0..threads)
            .map(|t| self.thread_workload_sharing(t, threads, seed, spec))
            .collect()
    }
}

impl std::fmt::Display for ParallelBench {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn all_models_build_for_four_threads() {
        for b in ParallelBench::ALL {
            let ws = b.workloads(4, 99);
            assert_eq!(ws.len(), 4);
            for w in &ws {
                assert!(w.label.starts_with(b.name()));
            }
        }
    }

    #[test]
    fn threads_share_addresses() {
        // Two threads of streamcluster must touch overlapping shared lines.
        let mut w0 = ParallelBench::Streamcluster.thread_workload(0, 4, 1);
        let mut w1 = ParallelBench::Streamcluster.thread_workload(1, 4, 1);
        let lines = |w: &mut CoreWorkload| -> HashSet<u64> {
            (0..20_000)
                .map(|_| w.stream.next_access().addr.raw() / LINE_BYTES)
                .collect()
        };
        let l0 = lines(&mut w0);
        let l1 = lines(&mut w1);
        assert!(
            l0.intersection(&l1).count() > 100,
            "threads never share lines"
        );
    }

    #[test]
    fn private_regions_are_disjoint() {
        let mut w0 = ParallelBench::Blackscholes.thread_workload(0, 2, 1);
        let mut w1 = ParallelBench::Blackscholes.thread_workload(1, 2, 1);
        let privates = |w: &mut CoreWorkload| -> HashSet<u64> {
            (0..20_000)
                .map(|_| w.stream.next_access().addr.raw())
                .filter(|&a| a >= PRIVATE_BASE)
                .map(|a| a / LINE_BYTES)
                .collect()
        };
        let p0 = privates(&mut w0);
        let p1 = privates(&mut w1);
        assert!(!p0.is_empty() && !p1.is_empty());
        assert_eq!(p0.intersection(&p1).count(), 0);
    }

    #[test]
    fn partitioned_benches_split_the_shared_sweep() {
        let mut w0 = ParallelBench::Fft.thread_workload(0, 4, 1);
        let mut addrs = HashSet::new();
        for _ in 0..10_000 {
            let a = w0.stream.next_access().addr.raw();
            if (SHARED_BASE..SHARED_BASE + 2 * MB).contains(&a) {
                addrs.insert(a);
            }
        }
        // Thread 0's sweep stays in the first partition except for the
        // transpose chase, which can reach anywhere in the shared array.
        let part = 2 * MB / 4;
        let in_own = addrs.iter().filter(|&&a| a < SHARED_BASE + part).count();
        assert!(
            in_own * 2 > addrs.len(),
            "most shared touches in own partition"
        );
    }

    #[test]
    #[should_panic(expected = "bad thread index")]
    fn bad_tid_panics() {
        let _ = ParallelBench::Lu.thread_workload(4, 4, 0);
    }

    #[test]
    fn partitions_cover_exactly_and_line_aligned() {
        // Regression for the two partition bugs: the integer division used
        // to drop `total % threads` bytes (a tail no thread ever swept),
        // and non-line-multiple quotients put adjacent threads on the same
        // boundary line. Every thread count must now tile [0, total)
        // exactly with line-aligned interior boundaries.
        for total in [2 * MB, 4 * MB, 8 * MB] {
            for threads in [1usize, 2, 3, 4, 5, 6, 7, 12, 24, 48, 64] {
                let mut covered = 0u64;
                let mut expected_off = 0u64;
                for tid in 0..threads {
                    let (off, bytes) = partition(total, tid, threads);
                    assert_eq!(off, expected_off, "t{tid}/{threads} gap or overlap");
                    assert_eq!(off % LINE_BYTES, 0, "t{tid}/{threads} boundary mid-line");
                    assert!(bytes > 0);
                    covered += bytes;
                    expected_off = off + bytes;
                }
                assert_eq!(
                    covered, total,
                    "{threads} threads cover {covered} of {total} bytes"
                );
            }
        }
        // Three threads over 2 MB: the old `2*MB/3` left a 2-byte tail
        // unswept and split mid-line; the last thread now absorbs it.
        let (off2, bytes2) = partition(2 * MB, 2, 3);
        assert_eq!(off2 % LINE_BYTES, 0);
        assert_eq!(off2 + bytes2, 2 * MB);
        assert!(bytes2 >= (2 * MB) / 3);
    }

    #[test]
    fn nonpow2_thread_counts_sweep_the_whole_array() {
        // End-to-end coverage check through the fft model itself: with 3
        // threads, the union of the partition sweeps must reach the last
        // line of the 2 MB shared array (the old truncation never could).
        let threads = 3;
        let mut seen_last = false;
        let last_line = (SHARED_BASE + 2 * MB - LINE_BYTES) / LINE_BYTES;
        for tid in 0..threads {
            let mut w = ParallelBench::Fft.thread_workload(tid, threads, 7);
            for _ in 0..400_000 {
                let a = w.stream.next_access();
                if a.stream == 0 && a.addr.raw() / LINE_BYTES == last_line {
                    seen_last = true;
                    break;
                }
            }
        }
        assert!(seen_last, "no thread's sweep reached the array's last line");
    }

    #[test]
    fn power_of_two_partitions_unchanged() {
        // The committed 4-thread results rely on power-of-two partitions
        // staying byte-identical: exact division, already line-aligned.
        for threads in [1usize, 2, 4, 8, 16, 32, 64] {
            for tid in 0..threads {
                let (off, bytes) = partition(2 * MB, tid, threads);
                assert_eq!(off, tid as u64 * (2 * MB / threads as u64));
                assert_eq!(bytes, 2 * MB / threads as u64);
            }
        }
    }

    #[test]
    fn sharing_degree_zero_is_byte_identical_to_base() {
        let mut base = ParallelBench::Lu.thread_workload(1, 4, 11);
        let mut wrapped = ParallelBench::Lu.thread_workload_sharing(
            1,
            4,
            11,
            SharingSpec {
                degree: 0.0,
                write_fraction: 0.35,
            },
        );
        for i in 0..20_000 {
            assert_eq!(
                base.stream.next_access(),
                wrapped.stream.next_access(),
                "access {i}"
            );
        }
    }

    #[test]
    fn sharing_degree_routes_the_requested_fraction_into_the_pool() {
        let pool_range = SHARING_POOL_BASE..SHARING_POOL_BASE + SHARING_POOL_LINES * LINE_BYTES;
        for degree in [0.1, 0.4, 0.8] {
            let mut w = ParallelBench::Fft.thread_workload_sharing(
                0,
                4,
                3,
                SharingSpec::read_mostly(degree),
            );
            const N: usize = 40_000;
            let pooled = (0..N)
                .filter(|_| pool_range.contains(&w.stream.next_access().addr.raw()))
                .count();
            let got = pooled as f64 / N as f64;
            assert!(
                (got - degree).abs() < 0.02,
                "degree {degree}: {got} of accesses in the pool"
            );
        }
    }

    #[test]
    fn sharing_pool_lines_overlap_across_threads_and_split_reads_writes() {
        use cmp_cache::AccessKind;
        let spec = SharingSpec::read_write(0.5);
        let mut w0 = ParallelBench::Ocean.thread_workload_sharing(0, 2, 5, spec);
        let mut w1 = ParallelBench::Ocean.thread_workload_sharing(1, 2, 5, spec);
        let pool_range = SHARING_POOL_BASE..SHARING_POOL_BASE + SHARING_POOL_LINES * LINE_BYTES;
        let pool_lines = |w: &mut CoreWorkload| -> (HashSet<u64>, usize, usize) {
            let mut lines = HashSet::new();
            let (mut stores, mut total) = (0, 0);
            for _ in 0..40_000 {
                let a = w.stream.next_access();
                if pool_range.contains(&a.addr.raw()) {
                    lines.insert(a.addr.raw() / LINE_BYTES);
                    total += 1;
                    if a.kind == AccessKind::Store {
                        stores += 1;
                    }
                }
            }
            (lines, stores, total)
        };
        let (l0, stores, total) = pool_lines(&mut w0);
        let (l1, _, _) = pool_lines(&mut w1);
        assert!(
            l0.intersection(&l1).count() > 100,
            "threads must share pool lines"
        );
        let frac = stores as f64 / total as f64;
        assert!(
            (frac - 0.35).abs() < 0.05,
            "read-write split store fraction {frac}"
        );
    }

    #[test]
    fn display_names() {
        assert_eq!(ParallelBench::Canneal.to_string(), "canneal");
    }
}
