//! FITS headers: 80-character cards in 2880-byte blocks.

use crate::codec::Bitpix;
use crate::format_error;
use sleds_sim_core::SimResult;

/// Size of a FITS logical block.
pub const BLOCK_SIZE: usize = 2880;

/// Size of one header card.
pub const CARD_SIZE: usize = 80;

/// A parsed FITS header: ordered keyword/value cards.
#[derive(Clone, Debug, PartialEq)]
pub struct FitsHeader {
    cards: Vec<(String, String)>,
}

impl FitsHeader {
    /// Builds a primary HDU header for an image.
    pub fn primary(bitpix: Bitpix, axes: &[usize]) -> Self {
        let mut h = FitsHeader { cards: Vec::new() };
        h.push("SIMPLE", "T");
        h.push("BITPIX", &bitpix.code().to_string());
        h.push("NAXIS", &axes.len().to_string());
        for (i, n) in axes.iter().enumerate() {
            h.push(&format!("NAXIS{}", i + 1), &n.to_string());
        }
        h
    }

    /// Builds an IMAGE extension header (used for appended data such as
    /// fimhisto's histogram).
    pub fn image_extension(bitpix: Bitpix, axes: &[usize]) -> Self {
        let mut h = FitsHeader { cards: Vec::new() };
        h.push("XTENSION", "'IMAGE   '");
        h.push("BITPIX", &bitpix.code().to_string());
        h.push("NAXIS", &axes.len().to_string());
        for (i, n) in axes.iter().enumerate() {
            h.push(&format!("NAXIS{}", i + 1), &n.to_string());
        }
        h.push("PCOUNT", "0");
        h.push("GCOUNT", "1");
        h
    }

    /// Appends a card.
    pub fn push(&mut self, keyword: &str, value: &str) {
        self.cards.push((keyword.to_string(), value.to_string()));
    }

    /// Looks up the (first) value for a keyword.
    pub fn get(&self, keyword: &str) -> Option<&str> {
        self.cards
            .iter()
            .find(|(k, _)| k == keyword)
            .map(|(_, v)| v.as_str())
    }

    /// Integer-valued card lookup.
    pub fn get_int(&self, keyword: &str) -> SimResult<i64> {
        let v = self
            .get(keyword)
            .ok_or_else(|| format_error(format!("missing {keyword}")))?;
        v.trim()
            .parse()
            .map_err(|_| format_error(format!("{keyword} = {v:?} is not an integer")))
    }

    /// The pixel type.
    pub fn bitpix(&self) -> SimResult<Bitpix> {
        let code = self.get_int("BITPIX")?;
        let narrow =
            i32::try_from(code).map_err(|_| format_error(format!("unsupported BITPIX {code}")))?;
        Bitpix::from_code(narrow)
    }

    /// The axis lengths `NAXIS1..NAXISn`.
    pub fn axes(&self) -> SimResult<Vec<usize>> {
        let n = self.get_int("NAXIS")?;
        if !(0..=8).contains(&n) {
            return Err(format_error(format!("NAXIS = {n} out of range")));
        }
        (1..=n)
            .map(|i| {
                let len = self.get_int(&format!("NAXIS{i}"))?;
                if len < 0 {
                    return Err(format_error(format!("NAXIS{i} negative")));
                }
                Ok(len as usize)
            })
            .collect()
    }

    /// Total pixels in the data unit.
    pub fn pixel_count(&self) -> SimResult<u64> {
        let axes = self.axes()?;
        if axes.is_empty() {
            return Ok(0);
        }
        axes.iter()
            .try_fold(1u64, |n, &len| n.checked_mul(len as u64))
            .ok_or_else(|| format_error("pixel count overflows"))
    }

    /// Bytes of data (before padding).
    pub fn data_bytes(&self) -> SimResult<u64> {
        self.pixel_count()?
            .checked_mul(self.bitpix()?.bytes_per_pixel() as u64)
            .ok_or_else(|| format_error("data unit size overflows"))
    }

    /// Encodes the header as whole blocks, END-terminated and padded.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::new();
        for (k, v) in &self.cards {
            let card = format!("{:<8}= {:>20}", truncate(k, 8), truncate(v, 20));
            push_card(&mut out, &card);
        }
        push_card(&mut out, "END");
        while !out.len().is_multiple_of(BLOCK_SIZE) {
            out.push(b' ');
        }
        out
    }

    /// Parses a header from `bytes`, returning it and the number of bytes
    /// consumed (a whole number of blocks).
    pub fn parse(bytes: &[u8]) -> SimResult<(FitsHeader, usize)> {
        let mut cards = Vec::new();
        let mut pos = 0;
        loop {
            if pos + CARD_SIZE > bytes.len() {
                return Err(format_error("header not END-terminated"));
            }
            let card = &bytes[pos..pos + CARD_SIZE];
            pos += CARD_SIZE;
            // ASCII first: the fixed-column slicing below would otherwise
            // split a multi-byte character.
            if !card.is_ascii() {
                return Err(format_error("non-ASCII header card"));
            }
            let text = std::str::from_utf8(card).expect("ASCII is UTF-8");
            let keyword = text[..8].trim_end();
            if keyword == "END" {
                break;
            }
            if keyword.is_empty() || keyword == "COMMENT" || keyword == "HISTORY" {
                continue;
            }
            let value = match text.get(8..10) {
                Some("= ") => text[10..].split('/').next().unwrap_or("").trim(),
                _ => "",
            };
            cards.push((keyword.to_string(), value.to_string()));
        }
        // Consume padding to the block boundary.
        let consumed = pos.div_ceil(BLOCK_SIZE) * BLOCK_SIZE;
        if consumed > bytes.len() {
            return Err(format_error("truncated header block"));
        }
        Ok((FitsHeader { cards }, consumed))
    }
}

fn truncate(s: &str, n: usize) -> &str {
    &s[..s.len().min(n)]
}

fn push_card(out: &mut Vec<u8>, text: &str) {
    let mut card = [b' '; CARD_SIZE];
    let bytes = text.as_bytes();
    card[..bytes.len().min(CARD_SIZE)].copy_from_slice(&bytes[..bytes.len().min(CARD_SIZE)]);
    out.extend_from_slice(&card);
}

/// Pads a data length to a whole number of blocks.
pub fn padded_len(data_bytes: u64) -> u64 {
    data_bytes.div_ceil(BLOCK_SIZE as u64) * BLOCK_SIZE as u64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn encode_parse_roundtrip() {
        let h = FitsHeader::primary(Bitpix::I16, &[512, 256]);
        let enc = h.encode();
        assert!(enc.len().is_multiple_of(BLOCK_SIZE));
        let (parsed, consumed) = FitsHeader::parse(&enc).unwrap();
        assert_eq!(consumed, enc.len());
        assert_eq!(parsed.get("SIMPLE").unwrap(), "T");
        assert_eq!(parsed.bitpix().unwrap(), Bitpix::I16);
        assert_eq!(parsed.axes().unwrap(), vec![512, 256]);
    }

    #[test]
    fn data_bytes_and_pixels() {
        let h = FitsHeader::primary(Bitpix::F32, &[100, 10]);
        assert_eq!(h.pixel_count().unwrap(), 1000);
        assert_eq!(h.data_bytes().unwrap(), 4000);
        let empty = FitsHeader::primary(Bitpix::U8, &[]);
        assert_eq!(empty.pixel_count().unwrap(), 0);
    }

    #[test]
    fn extension_header_has_xtension() {
        let h = FitsHeader::image_extension(Bitpix::F64, &[64]);
        let enc = h.encode();
        let (parsed, _) = FitsHeader::parse(&enc).unwrap();
        assert!(parsed.get("XTENSION").unwrap().contains("IMAGE"));
        assert_eq!(parsed.axes().unwrap(), vec![64]);
    }

    #[test]
    fn parse_rejects_unterminated() {
        let junk = vec![b' '; BLOCK_SIZE];
        assert!(FitsHeader::parse(&junk[..CARD_SIZE]).is_err());
    }

    #[test]
    fn parse_skips_comments() {
        let mut raw = Vec::new();
        push_card(&mut raw, "SIMPLE  =                    T");
        push_card(&mut raw, "COMMENT this is ignored");
        push_card(&mut raw, "BITPIX  =                    8");
        push_card(&mut raw, "NAXIS   =                    0");
        push_card(&mut raw, "END");
        while !raw.len().is_multiple_of(BLOCK_SIZE) {
            raw.push(b' ');
        }
        let (h, _) = FitsHeader::parse(&raw).unwrap();
        assert_eq!(h.cards.len(), 3);
        assert_eq!(h.bitpix().unwrap(), Bitpix::U8);
    }

    #[test]
    fn value_comments_are_stripped() {
        let mut raw = Vec::new();
        push_card(&mut raw, "SIMPLE  =                    T");
        push_card(&mut raw, "BITPIX  =                   16 / two-byte ints");
        push_card(&mut raw, "NAXIS   =                    0");
        push_card(&mut raw, "END");
        while !raw.len().is_multiple_of(BLOCK_SIZE) {
            raw.push(b' ');
        }
        let (h, _) = FitsHeader::parse(&raw).unwrap();
        assert_eq!(h.bitpix().unwrap(), Bitpix::I16);
    }

    #[test]
    fn padded_len_rounds_to_blocks() {
        assert_eq!(padded_len(0), 0);
        assert_eq!(padded_len(1), 2880);
        assert_eq!(padded_len(2880), 2880);
        assert_eq!(padded_len(2881), 5760);
    }
}
