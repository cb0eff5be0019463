package wire

var Nagle = TCP{}
