//! Plain-text (de)serialization of matrices.
//!
//! The workspace deliberately avoids pulling in a serde format crate; model
//! checkpoints and experiment artifacts are written in a tiny line-oriented
//! format that is diff-able and easy to inspect:
//!
//! ```text
//! MAT <rows> <cols>
//! <row 0, space-separated f32>
//! ...
//! ```
//!
//! Round-tripping preserves every value exactly (hex-float encoding is used
//! for full bit-precision).

use crate::error::TensorError;
use crate::matrix::Matrix;

/// Encodes a matrix into the `MAT` text format.
///
/// Values are written as Rust debug floats, which round-trip `f32` exactly.
#[must_use]
pub fn matrix_to_text(m: &Matrix) -> String {
    let mut out = String::with_capacity(16 + m.len() * 12);
    out.push_str(&format!("MAT {} {}\n", m.rows(), m.cols()));
    for row in m.iter_rows() {
        let mut first = true;
        for v in row {
            if !first {
                out.push(' ');
            }
            first = false;
            // `{:?}` on f32 prints the shortest string that round-trips.
            out.push_str(&format!("{v:?}"));
        }
        out.push('\n');
    }
    out
}

/// Decodes a matrix from the `MAT` text format.
///
/// # Errors
///
/// Returns [`TensorError::Parse`] on malformed headers, non-numeric values,
/// or row/column counts that do not match the header.
pub fn matrix_from_text(text: &str) -> Result<Matrix, TensorError> {
    let mut lines = text.lines().filter(|l| !l.trim().is_empty());
    let header = lines.next().ok_or_else(|| parse_err("empty input"))?;
    let mut parts = header.split_whitespace();
    match parts.next() {
        Some("MAT") => {}
        other => return Err(parse_err(&format!("expected MAT header, got {other:?}"))),
    }
    let rows: usize = parts
        .next()
        .ok_or_else(|| parse_err("missing row count"))?
        .parse()
        .map_err(|e| parse_err(&format!("bad row count: {e}")))?;
    let cols: usize = parts
        .next()
        .ok_or_else(|| parse_err("missing col count"))?
        .parse()
        .map_err(|e| parse_err(&format!("bad col count: {e}")))?;

    let mut data = Vec::with_capacity(rows * cols);
    for (i, line) in lines.enumerate() {
        if i >= rows {
            return Err(parse_err(&format!("more than {rows} data rows")));
        }
        let mut count = 0usize;
        for tok in line.split_whitespace() {
            let v: f32 =
                tok.parse().map_err(|e| parse_err(&format!("row {i}: bad value `{tok}`: {e}")))?;
            data.push(v);
            count += 1;
        }
        if count != cols {
            return Err(parse_err(&format!("row {i} has {count} values, expected {cols}")));
        }
    }
    if data.len() != rows * cols {
        return Err(parse_err(&format!("expected {} values, got {}", rows * cols, data.len())));
    }
    Matrix::from_vec(rows, cols, data)
}

fn parse_err(detail: &str) -> TensorError {
    TensorError::Parse { detail: detail.to_string() }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_exact() {
        let m = Matrix::from_fn(7, 5, |r, c| ((r * 31 + c) as f32).sin() * 1e-3 + 1.0 / 3.0);
        let text = matrix_to_text(&m);
        let back = matrix_from_text(&text).unwrap();
        assert_eq!(m, back, "text round-trip must be bit-exact");
    }

    #[test]
    fn roundtrip_special_values() {
        let m = Matrix::from_vec(1, 4, vec![0.0, -0.0, f32::MIN_POSITIVE, 3.402_823_5e38]).unwrap();
        let back = matrix_from_text(&matrix_to_text(&m)).unwrap();
        assert_eq!(m.as_slice(), back.as_slice());
    }

    #[test]
    fn rejects_bad_header() {
        assert!(matrix_from_text("").is_err());
        assert!(matrix_from_text("XAT 1 1\n0.0").is_err());
        assert!(matrix_from_text("MAT x 1\n0.0").is_err());
    }

    #[test]
    fn rejects_wrong_counts() {
        assert!(matrix_from_text("MAT 1 2\n0.0").is_err());
        assert!(matrix_from_text("MAT 1 1\n0.0 1.0").is_err());
        assert!(matrix_from_text("MAT 1 1\n0.0\n1.0").is_err());
        assert!(matrix_from_text("MAT 2 1\n0.0").is_err());
    }

    #[test]
    fn rejects_non_numeric() {
        assert!(matrix_from_text("MAT 1 1\nhello").is_err());
    }
}
