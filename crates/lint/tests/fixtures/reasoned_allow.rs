#[allow(clippy::too_many_arguments)]
pub fn bare(a: u8, b: u8, c: u8, d: u8, e: u8, f: u8, g: u8, h: u8) {}

#[allow(clippy::too_many_arguments)] // one knob per crash axis
pub fn commented(a: u8, b: u8, c: u8, d: u8, e: u8, f: u8, g: u8, h: u8) {}

#[allow(clippy::vec_box, reason = "moves stay pointer-sized")]
pub fn with_reason(pool: Vec<Box<u8>>) {}

#![allow(clippy::needless_range_loop)]

#[allow(
    clippy::too_many_arguments,
    clippy::type_complexity
)] // spans lines: the comment sits where the attribute closes
pub fn multi_line() {}

#[allow(dead_code)]
pub fn not_clippy() {}

#[cfg_attr(test, allow(clippy::unwrap_used))] //
pub fn empty_comment() {}
