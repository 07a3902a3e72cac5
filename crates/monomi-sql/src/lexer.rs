//! SQL lexer: turns query text into a token stream for the parser.

use std::fmt;

/// A lexical token.
#[derive(Clone, Debug, PartialEq)]
pub enum Token {
    /// Keyword or identifier (uppercased keywords are matched case-insensitively
    /// by the parser; the original text is preserved).
    Ident(String),
    /// Numeric literal text.
    Number(String),
    /// Single-quoted string literal (with quotes removed and '' unescaped).
    String(String),
    /// Positional parameter `:n`.
    Param(usize),
    /// Punctuation and operators.
    LParen,
    RParen,
    Comma,
    Dot,
    Semicolon,
    Star,
    Plus,
    Minus,
    Slash,
    Percent,
    Eq,
    NotEq,
    Lt,
    LtEq,
    Gt,
    GtEq,
}

impl fmt::Display for Token {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Token::Ident(s) => write!(f, "{s}"),
            Token::Number(s) => write!(f, "{s}"),
            Token::String(s) => write!(f, "'{s}'"),
            Token::Param(n) => write!(f, ":{n}"),
            Token::LParen => write!(f, "("),
            Token::RParen => write!(f, ")"),
            Token::Comma => write!(f, ","),
            Token::Dot => write!(f, "."),
            Token::Semicolon => write!(f, ";"),
            Token::Star => write!(f, "*"),
            Token::Plus => write!(f, "+"),
            Token::Minus => write!(f, "-"),
            Token::Slash => write!(f, "/"),
            Token::Percent => write!(f, "%"),
            Token::Eq => write!(f, "="),
            Token::NotEq => write!(f, "<>"),
            Token::Lt => write!(f, "<"),
            Token::LtEq => write!(f, "<="),
            Token::Gt => write!(f, ">"),
            Token::GtEq => write!(f, ">="),
        }
    }
}

/// Error produced when the input cannot be tokenized.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct LexError {
    pub message: String,
    pub position: usize,
}

impl fmt::Display for LexError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "lex error at byte {}: {}", self.position, self.message)
    }
}

impl std::error::Error for LexError {}

/// Tokenizes SQL text.
pub fn tokenize(input: &str) -> Result<Vec<Token>, LexError> {
    let bytes = input.as_bytes();
    let mut tokens = Vec::new();
    let mut i = 0usize;
    while i < bytes.len() {
        let c = bytes[i] as char;
        match c {
            ' ' | '\t' | '\r' | '\n' => i += 1,
            '-' if i + 1 < bytes.len() && bytes[i + 1] == b'-' => {
                // Line comment.
                while i < bytes.len() && bytes[i] != b'\n' {
                    i += 1;
                }
            }
            '(' => {
                tokens.push(Token::LParen);
                i += 1;
            }
            ')' => {
                tokens.push(Token::RParen);
                i += 1;
            }
            ',' => {
                tokens.push(Token::Comma);
                i += 1;
            }
            '.' => {
                tokens.push(Token::Dot);
                i += 1;
            }
            ';' => {
                tokens.push(Token::Semicolon);
                i += 1;
            }
            '*' => {
                tokens.push(Token::Star);
                i += 1;
            }
            '+' => {
                tokens.push(Token::Plus);
                i += 1;
            }
            '-' => {
                tokens.push(Token::Minus);
                i += 1;
            }
            '/' => {
                tokens.push(Token::Slash);
                i += 1;
            }
            '%' => {
                tokens.push(Token::Percent);
                i += 1;
            }
            '=' => {
                tokens.push(Token::Eq);
                i += 1;
            }
            '!' if i + 1 < bytes.len() && bytes[i + 1] == b'=' => {
                tokens.push(Token::NotEq);
                i += 2;
            }
            '<' => {
                if i + 1 < bytes.len() && bytes[i + 1] == b'=' {
                    tokens.push(Token::LtEq);
                    i += 2;
                } else if i + 1 < bytes.len() && bytes[i + 1] == b'>' {
                    tokens.push(Token::NotEq);
                    i += 2;
                } else {
                    tokens.push(Token::Lt);
                    i += 1;
                }
            }
            '>' => {
                if i + 1 < bytes.len() && bytes[i + 1] == b'=' {
                    tokens.push(Token::GtEq);
                    i += 2;
                } else {
                    tokens.push(Token::Gt);
                    i += 1;
                }
            }
            ':' => {
                let start = i + 1;
                let mut end = start;
                while end < bytes.len() && (bytes[end] as char).is_ascii_digit() {
                    end += 1;
                }
                // Parameters are 1-based; an empty, 0 or too-large number is an error.
                let n = input[start..end].parse().ok().filter(|&n| n >= 1);
                tokens.push(Token::Param(n.ok_or_else(|| LexError {
                    message: "expected parameter number from 1 after ':'".into(),
                    position: i,
                })?));
                i = end;
            }
            '\'' => {
                // String literal with '' escaping.
                let mut value = String::new();
                let mut j = i + 1;
                loop {
                    if j >= bytes.len() {
                        return Err(LexError {
                            message: "unterminated string literal".into(),
                            position: i,
                        });
                    }
                    if bytes[j] == b'\'' {
                        if j + 1 < bytes.len() && bytes[j + 1] == b'\'' {
                            value.push('\'');
                            j += 2;
                        } else {
                            j += 1;
                            break;
                        }
                    } else {
                        value.push(bytes[j] as char);
                        j += 1;
                    }
                }
                tokens.push(Token::String(value));
                i = j;
            }
            c if c.is_ascii_digit() => {
                let start = i;
                let mut end = i;
                let mut seen_dot = false;
                while end < bytes.len() {
                    let ch = bytes[end] as char;
                    if ch.is_ascii_digit() {
                        end += 1;
                    } else if ch == '.' && !seen_dot {
                        // A dot followed by a digit is a decimal point.
                        if end + 1 < bytes.len() && (bytes[end + 1] as char).is_ascii_digit() {
                            seen_dot = true;
                            end += 1;
                        } else {
                            break;
                        }
                    } else {
                        break;
                    }
                }
                tokens.push(Token::Number(input[start..end].to_string()));
                i = end;
            }
            c if c.is_ascii_alphabetic() || c == '_' => {
                let start = i;
                let mut end = i;
                while end < bytes.len() {
                    let ch = bytes[end] as char;
                    if ch.is_ascii_alphanumeric() || ch == '_' {
                        end += 1;
                    } else {
                        break;
                    }
                }
                tokens.push(Token::Ident(input[start..end].to_string()));
                i = end;
            }
            other => {
                return Err(LexError {
                    message: format!("unexpected character '{other}'"),
                    position: i,
                })
            }
        }
    }
    Ok(tokens)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tokenizes_simple_select() {
        let toks = tokenize("SELECT a, b FROM t WHERE a >= 10").unwrap();
        assert_eq!(toks.len(), 10);
        assert_eq!(toks[0], Token::Ident("SELECT".into()));
        assert_eq!(toks[7], Token::Ident("a".into()));
        assert_eq!(toks[8], Token::GtEq);
        assert_eq!(toks[9], Token::Number("10".into()));
    }

    #[test]
    fn tokenizes_strings_with_escapes() {
        let toks = tokenize("SELECT 'it''s a test', '%promo%'").unwrap();
        assert_eq!(toks[1], Token::String("it's a test".into()));
        assert_eq!(toks[3], Token::String("%promo%".into()));
    }

    #[test]
    fn tokenizes_decimals_and_params() {
        let toks = tokenize("x * 0.0001 + :2").unwrap();
        assert_eq!(toks[2], Token::Number("0.0001".into()));
        assert_eq!(toks[4], Token::Param(2));
    }

    #[test]
    fn rejects_parameter_zero_and_overflowing_parameter_numbers() {
        for sql in ["SELECT :0", "SELECT :99999999999999999999", "SELECT :"] {
            let err = tokenize(sql).unwrap_err();
            assert_eq!(err.position, 7, "{sql}");
        }
        assert_eq!(tokenize(":1").unwrap(), vec![Token::Param(1)]);
    }

    #[test]
    fn tokenizes_comparison_operators() {
        let toks = tokenize("a <> b <= c >= d != e < f > g").unwrap();
        assert_eq!(toks.iter().filter(|t| **t == Token::NotEq).count(), 2);
        assert!(toks.contains(&Token::LtEq));
        assert!(toks.contains(&Token::GtEq));
    }

    #[test]
    fn skips_comments_and_whitespace() {
        let toks = tokenize("SELECT a -- trailing comment\nFROM t").unwrap();
        assert_eq!(toks.len(), 4);
    }

    #[test]
    fn rejects_unterminated_string() {
        assert!(tokenize("SELECT 'oops").is_err());
    }

    #[test]
    fn qualified_names_split_on_dot() {
        let toks = tokenize("lineitem.l_quantity").unwrap();
        assert_eq!(
            toks,
            vec![
                Token::Ident("lineitem".into()),
                Token::Dot,
                Token::Ident("l_quantity".into())
            ]
        );
    }
}
