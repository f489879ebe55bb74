//! The output checker: host-side reference answers computed straight from
//! the generated inputs, with no simulator code on the path. A workload
//! compares what the simulated apps returned against these and reports any
//! difference as a *miss*; one miss fails the run.

use crate::inputs::{FitsImage, HIT, NEEDLE};

/// Collects misses; `expect` keeps call sites to one line each.
#[derive(Default)]
pub struct Misses {
    pub missed: Vec<String>,
    pub checked: u64,
}

impl Misses {
    pub fn expect(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.checked += 1;
        if !ok {
            self.missed.push(what());
        }
    }

    /// Records an operation that failed outright.
    pub fn failed(&mut self, what: String) {
        self.checked += 1;
        self.missed.push(what);
    }

    pub fn equal<T: PartialEq + std::fmt::Debug>(&mut self, got: &T, want: &T, what: &str) {
        self.expect(got == want, || {
            format!("{what}: got {got:?}, want {want:?}")
        });
    }
}

/// What `wc` and `grep` must say about a corpus.
#[derive(Debug)]
pub struct TextTruth {
    pub lines: u64,
    pub words: u64,
    pub bytes: u64,
    /// Start offsets of the lines carrying [`HIT`], in file order.
    pub hit_lines: Vec<u64>,
    /// Start offset of the one line carrying [`NEEDLE`].
    pub needle_line: Option<u64>,
}

fn contains(hay: &[u8], needle: &[u8]) -> bool {
    hay.windows(needle.len()).any(|w| w == needle)
}

/// One pass over the corpus. Markers are the only uppercase bytes, so only
/// lines that saw one are searched.
pub fn text_truth(data: &[u8]) -> TextTruth {
    let mut t = TextTruth {
        lines: 0,
        words: 0,
        bytes: data.len() as u64,
        hit_lines: Vec::new(),
        needle_line: None,
    };
    let mut line_start = 0usize;
    let mut in_word = false;
    let mut upper = false;
    let end_line = |t: &mut TextTruth, start: usize, end: usize, upper: bool| {
        if upper {
            let line = &data[start..end];
            if contains(line, HIT) {
                t.hit_lines.push(start as u64);
            }
            if contains(line, NEEDLE) {
                t.needle_line = Some(start as u64);
            }
        }
    };
    for (i, &b) in data.iter().enumerate() {
        let space = matches!(b, b' ' | b'\t' | b'\n' | b'\r' | 0x0b | 0x0c);
        if !space && !in_word {
            t.words += 1;
        }
        in_word = !space;
        upper |= b.is_ascii_uppercase();
        if b == b'\n' {
            t.lines += 1;
            end_line(&mut t, line_start, i, upper);
            line_start = i + 1;
            upper = false;
        }
    }
    if line_start < data.len() {
        end_line(&mut t, line_start, data.len(), upper);
    }
    t
}

/// `fimhisto`'s answer: the tool's binning rule applied to the generator's
/// own pixels.
pub fn histogram_truth(img: &FitsImage, bins: usize) -> Vec<u64> {
    let min = f64::from(*img.pixels.iter().min().unwrap_or(&0));
    let max = f64::from(*img.pixels.iter().max().unwrap_or(&0));
    let width = if max > min { max - min } else { 1.0 };
    let last = bins - 1;
    let mut h = vec![0u64; bins];
    for &p in &img.pixels {
        let b = (((f64::from(p) - min) / width) * last as f64).round() as usize;
        h[b.min(last)] += 1;
    }
    h
}

/// `fimgbin`'s answer: `factor x factor` boxcar means, truncated to I16 as
/// the FITS codec stores them; ragged edges discarded.
pub fn rebin_truth(img: &FitsImage, factor: usize) -> (usize, usize, Vec<i16>) {
    let (ow, oh) = (img.width / factor, img.height / factor);
    let mut out = Vec::with_capacity(ow * oh);
    for oy in 0..oh {
        for ox in 0..ow {
            let mut sum = 0i64;
            for dy in 0..factor {
                let row = (oy * factor + dy) * img.width;
                for dx in 0..factor {
                    sum += i64::from(img.pixels[row + ox * factor + dx]);
                }
            }
            out.push((sum as f64 / (factor * factor) as f64) as i16);
        }
    }
    (ow, oh, out)
}
