use std::collections::HashMap; // sledlint::allow(D006, keyed access only, never iterated)

fn locate(sector: u64, spt: u64) -> u32 {
    // sledlint::allow(D007, quotient bounded by the u32 head count)
    (sector / spt) as u32
}

fn packed_key(span_pages: u64, tail_sectors: u64) -> u64 {
    // sledlint::allow(D013, mixed-radix key packing, not arithmetic on quantities)
    span_pages + tail_sectors
}
