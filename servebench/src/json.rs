//! Byte-exact navigation of raw JSON text.
//!
//! The oracle compares the server's `result` field byte for byte, so the
//! field is cut out of the response text rather than parsed and
//! re-serialised (which could mask a formatting difference).

/// Index just past the JSON value starting at `i` (after whitespace).
fn skip_value(bytes: &[u8], mut i: usize) -> Option<usize> {
    i = skip_ws(bytes, i);
    match *bytes.get(i)? {
        b'"' => skip_string(bytes, i),
        b'{' | b'[' => {
            let mut depth = 0usize;
            while i < bytes.len() {
                match bytes[i] {
                    b'"' => {
                        i = skip_string(bytes, i)?;
                        continue;
                    }
                    b'{' | b'[' => depth += 1,
                    b'}' | b']' => {
                        depth -= 1;
                        if depth == 0 {
                            return Some(i + 1);
                        }
                    }
                    _ => {}
                }
                i += 1;
            }
            None
        }
        _ => {
            while i < bytes.len() && !matches!(bytes[i], b',' | b'}' | b']') {
                i += 1;
            }
            Some(i)
        }
    }
}

fn skip_string(bytes: &[u8], mut i: usize) -> Option<usize> {
    i += 1;
    while i < bytes.len() {
        match bytes[i] {
            b'\\' => i += 2,
            b'"' => return Some(i + 1),
            _ => i += 1,
        }
    }
    None
}

fn skip_ws(bytes: &[u8], mut i: usize) -> usize {
    while i < bytes.len() && bytes[i].is_ascii_whitespace() {
        i += 1;
    }
    i
}

/// The members of a container (`{...}` or `[...]`) as raw text: for an
/// object each member is `(Some(key), value)`, for an array `(None, value)`.
fn members(text: &str) -> Option<Vec<(Option<&str>, &str)>> {
    let bytes = text.as_bytes();
    let mut i = skip_ws(bytes, 0);
    let object = match *bytes.get(i)? {
        b'{' => true,
        b'[' => false,
        _ => return None,
    };
    let close = if object { b'}' } else { b']' };
    i = skip_ws(bytes, i + 1);
    let mut out = Vec::new();
    if bytes.get(i) == Some(&close) {
        return Some(out);
    }
    loop {
        let key = if object {
            let end = skip_string(bytes, i)?;
            let key = &text[i + 1..end - 1];
            i = skip_ws(bytes, end);
            if bytes.get(i) != Some(&b':') {
                return None;
            }
            i = skip_ws(bytes, i + 1);
            Some(key)
        } else {
            None
        };
        let end = skip_value(bytes, i)?;
        out.push((key, text[i..end].trim_end()));
        i = skip_ws(bytes, end);
        match *bytes.get(i)? {
            b',' => i = skip_ws(bytes, i + 1),
            c if c == close => return Some(out),
            _ => return None,
        }
    }
}

/// The raw text of `key`'s value in a JSON object.
pub fn field<'a>(object: &'a str, key: &str) -> Option<&'a str> {
    members(object)?
        .into_iter()
        .find(|(k, _)| *k == Some(key))
        .map(|(_, value)| value)
}

/// The raw text of each element of a JSON array.
pub fn elements(array: &str) -> Option<Vec<&str>> {
    Some(members(array)?.into_iter().map(|(_, v)| v).collect())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cuts_fields_and_elements_exactly() {
        let text = r#"{"a":1,"result":{"x":[1,{"y":"}\""}]},"t":[2, 3]}"#;
        assert_eq!(field(text, "result"), Some(r#"{"x":[1,{"y":"}\""}]}"#));
        assert_eq!(field(text, "a"), Some("1"));
        assert_eq!(field(text, "missing"), None);
        let t = field(text, "t").unwrap();
        assert_eq!(elements(t), Some(vec!["2", "3"]));
        assert_eq!(elements("[]"), Some(vec![]));
        assert_eq!(field("not json", "a"), None);
    }
}
