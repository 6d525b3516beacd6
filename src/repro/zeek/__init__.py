"""Zeek-style log substrate.

The study consumes two Zeek log streams (§3.1):

- ``ssl.log`` — one row per TLS connection: endpoints, ports, SNI,
  version, establishment, and the *fuid* lists linking to the server and
  client certificate chains;
- ``x509.log`` — one row per observed certificate: serial, subject and
  issuer DNs, validity window, key parameters, and SAN contents.

This subpackage models both record types, the fuid linking between
them, Zeek's dynamic protocol detection (TLS found on any port, not
just 443), DN-string parsing, and Zeek's TSV on-disk format with a
round-tripping reader/writer.
"""

from repro.zeek.records import SslRecord, X509Record, make_file_uid
from repro.zeek.dn import format_dn, parse_dn
from repro.zeek.builder import ZeekLogBuilder, ZeekLogs
from repro.zeek.dpd import encode_client_hello_preamble, looks_like_tls
from repro.zeek.ingest import (
    ErrorPolicy,
    FastPath,
    IngestIssue,
    IngestOptions,
    IngestReport,
    RecordSource,
    ShardRecords,
)
from repro.zeek.tsv import (
    TailDecoder,
    TsvFormatError,
    format_ssl_row,
    format_x509_row,
    log_header_text,
    read_ssl_log,
    read_x509_log,
    ssl_log_to_string,
    write_ssl_log,
    write_x509_log,
    x509_log_to_string,
)
from repro.zeek.files import (
    LogsSource,
    TsvDirectorySource,
    read_logs_directory,
    write_rotated_logs,
)

__all__ = [
    "ErrorPolicy",
    "FastPath",
    "IngestIssue",
    "IngestOptions",
    "IngestReport",
    "RecordSource",
    "ShardRecords",
    "LogsSource",
    "TsvDirectorySource",
    "SslRecord",
    "X509Record",
    "make_file_uid",
    "format_dn",
    "parse_dn",
    "ZeekLogBuilder",
    "ZeekLogs",
    "encode_client_hello_preamble",
    "looks_like_tls",
    "TailDecoder",
    "TsvFormatError",
    "format_ssl_row",
    "format_x509_row",
    "log_header_text",
    "read_ssl_log",
    "read_x509_log",
    "ssl_log_to_string",
    "write_ssl_log",
    "write_x509_log",
    "x509_log_to_string",
    "read_logs_directory",
    "write_rotated_logs",
]
