//! The counting allocator against known allocations. One test, so no
//! other thread of the binary moves the process-wide gauge.

use pr_testkit::alloc::{calls_during, live_bytes, own_heap_during, peak_during, Counting};

#[global_allocator]
static ALLOCATOR: Counting = Counting;

#[test]
fn a_known_vec_growth_is_counted_exactly_and_the_gauge_comes_back() {
    let mut v: Vec<u64> = Vec::new();
    assert_eq!(calls_during(|| v.reserve_exact(4)), 1, "one alloc");
    assert_eq!(calls_during(|| v.extend([1, 2, 3, 4])), 0, "the room was there");
    assert_eq!(calls_during(|| v.reserve_exact(8)), 1, "one realloc");
    assert_eq!(calls_during(|| drop(v)), 1, "one dealloc");
    // Another thread's calls are not this thread's: the spawn costs
    // this one a handful, the thousand boxes nothing.
    let elsewhere = calls_during(|| {
        let boxes = || (0..1000).map(Box::new).collect::<Vec<Box<u32>>>().len();
        assert_eq!(std::thread::scope(|s| s.spawn(boxes).join()).expect("joins"), 1000);
    });
    assert!(elsewhere < 100, "{elsewhere} calls on the spawning thread");

    let before = live_bytes();
    let (len, peak) = peak_during(|| {
        let grown: Vec<u8> = Vec::with_capacity(1 << 20);
        let regrown = {
            let mut g = grown;
            g.reserve_exact(3 << 20);
            g
        };
        regrown.capacity()
    });
    assert_eq!(len, 3 << 20);
    assert!((3 << 20..4 << 20).contains(&peak), "peak {peak} B for a 3 MiB buffer");
    assert_eq!(live_bytes(), before, "everything allocated inside was freed");

    // The per-thread gauge sees this thread's buffer and none of the
    // thousand boxes another thread holds while it is measured.
    let (kept, retained, peak) = own_heap_during(|| {
        let kept: Vec<u8> = Vec::with_capacity(1 << 20);
        let boxes = || (0..1000).map(Box::new).collect::<Vec<Box<u64>>>();
        let held = std::thread::scope(|s| s.spawn(boxes).join()).expect("joins");
        drop(Vec::<u8>::with_capacity(2 << 20));
        (kept, held)
    });
    assert_eq!(kept.0.capacity(), 1 << 20);
    assert!(
        (1 << 20..(1 << 20) + 4096).contains(&retained),
        "retains {retained} B of a 1 MiB buffer"
    );
    assert!((3 << 20..(3 << 20) + 8192).contains(&peak), "peak {peak} B for 1 + 2 MiB buffers");
}
