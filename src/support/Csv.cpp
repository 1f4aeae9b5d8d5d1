//===- support/Csv.cpp ----------------------------------------------------===//

#include "support/Csv.h"

#include "support/FileIO.h"

using namespace metaopt;

void CsvWriter::addRow(const std::vector<std::string> &Cells) {
  Rows.push_back(Cells);
}

static bool needsQuoting(const std::string &Cell) {
  for (char C : Cell)
    if (C == ',' || C == '"' || C == '\n' || C == '\r')
      return true;
  return false;
}

static void appendQuoted(std::string &Out, const std::string &Cell) {
  Out += '"';
  for (char C : Cell) {
    if (C == '"')
      Out += '"';
    Out += C;
  }
  Out += '"';
}

std::string CsvWriter::str() const {
  std::string Out;
  for (const auto &Row : Rows) {
    for (size_t I = 0; I < Row.size(); ++I) {
      if (I)
        Out += ',';
      if (needsQuoting(Row[I]))
        appendQuoted(Out, Row[I]);
      else
        Out += Row[I];
    }
    Out += '\n';
  }
  return Out;
}

bool CsvWriter::writeToFile(const std::string &Path) const {
  return publishFile(Path, str());
}
