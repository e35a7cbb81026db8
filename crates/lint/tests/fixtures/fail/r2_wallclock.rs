// R2 fail fixture: a wall-clock read outside an allowlisted measuring site.
pub fn stamp() -> u128 {
    std::time::Instant::now().elapsed().as_nanos()
}
