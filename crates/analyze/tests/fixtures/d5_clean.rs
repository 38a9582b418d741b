//! D5 clean fixture: a sequential fold in input order — what the
//! Runner does, piece by piece, on one thread.

pub fn sequential_fold(chunks: Vec<Vec<u64>>) -> u64 {
    let mut worst = 0;
    for chunk in &chunks {
        worst = worst.max(chunk.iter().copied().max().unwrap_or(0));
    }
    worst
}
