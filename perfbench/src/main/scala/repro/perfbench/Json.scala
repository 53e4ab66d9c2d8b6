package repro.perfbench

/** Minimal JSON writer for the run record and the result line. */
object Json {
  def apply(v: Any): String = v match {
    case null                       => "null"
    case None                       => "null"
    case Some(x)                    => apply(x)
    case s: String                  => quote(s)
    case b: Boolean                 => b.toString
    case d: Double                  => if (d.isNaN || d.isInfinite) "null" else d.toString
    case f: Float                   => apply(f.toDouble)
    case n: Int                     => n.toString
    case n: Long                    => n.toString
    case m: scala.collection.Map[_, _] =>
      m.map { case (k, x) => quote(k.toString) + ": " + apply(x) }.mkString("{", ", ", "}")
    case xs: Iterable[_]            => xs.map(apply).mkString("[", ", ", "]")
    case other                      => quote(other.toString)
  }

  private def quote(s: String): String = {
    val b = new StringBuilder("\"")
    s.foreach {
      case '"'  => b ++= "\\\""
      case '\\' => b ++= "\\\\"
      case '\n' => b ++= "\\n"
      case '\t' => b ++= "\\t"
      case c if c < ' ' => b ++= f"\\u${c.toInt}%04x"
      case c    => b += c
    }
    (b += '"').toString
  }
}
